"""End-to-end benchmark of the biverify command line.

Run from the root of a checkout::

    python3 bench/run.py --workload two-qubit --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the workload's jobs run one after another, each as a fresh
``python -m biverify.cli`` process against the checkout's ``src``, repeated
while another repetition fits in ``--seconds``; the end-to-end metrics are
reported.  With
``--trace 1`` the same jobs run in this process, alternately untraced and
under the outside-in tracer, and the per-layer metrics are reported.  Every
output is checked against the paper's formulas.  The last line of standard
output is the JSON result; the line before it records the environment and
the sample counts.  See bench/README.md for the metrics and workloads.
"""
from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# Cap BLAS threads before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracles
import tracer as tracing
import workloads

SETUP_SAMPLES = 7
MIN_REPEATS = 2  # a second same-seed pass is what the byte-identity check compares
JOB_TIMEOUT_S = 120.0

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("job_s.p50", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)


@dataclass(frozen=True)
class JobRun:
    wall_s: float
    code: int
    stdout: str
    stderr: str
    peak_rss_mb: float = 0.0


def run_process(cmd: list[str], root: Path, env: dict, workdir: Path) -> JobRun:
    """Run ``cmd`` to completion; wall time and peak RSS from ``os.wait4``."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return JobRun(
            wall, proc.returncode, out.read().decode(), err.read().decode(),
            usage.ru_maxrss / 1024,
        )


def _require_package_under(root: Path, location: str) -> None:
    src = (root / "src").resolve()
    if src not in Path(location).resolve().parents:
        raise SystemExit(f"biverify was imported from {location}, not from {src}")


def run_end_to_end(jobs, seconds: int, root: Path, workdir: Path):
    """Repeat the job sequence as fresh processes; end-to-end metrics."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = run_process(
        [sys.executable, "-c", "import biverify; print(biverify.__file__)"], root, env, workdir
    )
    if probe.code != 0:
        raise SystemExit(f"import biverify failed:\n{probe.stderr}")
    _require_package_under(root, probe.stdout.strip())
    setup = []
    for _ in range(SETUP_SAMPLES):
        run = run_process([sys.executable, "-c", "import biverify"], root, env, workdir)
        if run.code != 0:
            raise SystemExit(f"import biverify failed:\n{run.stderr}")
        setup.append(run.wall_s)
    reps = []
    start = time.perf_counter()
    while not _done(start, len(reps), MIN_REPEATS, seconds):
        reps.append([
            run_process([sys.executable, "-m", "biverify.cli", *job.argv], root, env, workdir)
            for job in jobs
        ])

    failed = check_runs(jobs, reps)
    mc = [i for i, job in enumerate(jobs) if job.monte_carlo]
    trials = sum(jobs[i].trials for i in mc)
    metrics = {
        "wall_s": statistics.median(sum(run.wall_s for run in rep) for rep in reps),
        "job_s.p50": statistics.median(run.wall_s for rep in reps for run in rep),
        "trials_per_s": statistics.median(
            trials / sum(rep[i].wall_s for i in mc) for rep in reps
        ),
        "peak_rss_mb": statistics.median(max(run.peak_rss_mb for run in rep) for rep in reps),
        "setup_s": statistics.median(setup),
    }
    samples = {
        "repetitions": len(reps),
        "job_samples": len(jobs) * len(reps),
        "setup_samples": len(setup),
    }
    return metrics, len(jobs) * len(reps), failed, samples


def _done(start: float, passes: int, min_passes: int, seconds: int) -> bool:
    """Stop once ``min_passes`` ran and another pass of average length would
    end past ``seconds``, so a run measures for about ``seconds``."""
    elapsed = time.perf_counter() - start
    return passes >= min_passes and elapsed * (passes + 1) / passes > seconds


def check_runs(jobs, passes) -> int:
    """Check every output of every pass; return the number of failed jobs.

    Same-seed Monte Carlo output must be byte-identical to the first pass.
    """
    failed = 0
    for n, runs in enumerate(passes):
        for job, run, first in zip(jobs, runs, passes[0]):
            if run.code != 0:
                problems = [f"exit code {run.code}: {run.stderr.strip()[-2000:]}"]
            else:
                problems = oracles.check_output(job, run.stdout)
            if job.monte_carlo and run.stdout != first.stdout:
                problems.append("stdout differs from the first same-seed pass")
            if problems:
                failed += 1
                print(f"FAILED {job.label} (pass {n}): " + "; ".join(problems[:5]),
                      file=sys.stderr)
    return failed


def _run_in_process(cli, jobs, tracer=None) -> tuple[float, list[JobRun]]:
    runs, wall = [], 0.0
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if tracer is not None:
                tracer.enter(tracing.CLI_SPAN)
            try:
                code = cli.main(list(job.argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
            finally:
                if tracer is not None:
                    tracer.exit()
            elapsed = time.perf_counter() - start
        wall += elapsed
        runs.append(JobRun(elapsed, code, out.getvalue(), err.getvalue()))
        gc.collect()  # free one job's dense operators before the next job, untimed
    return wall, runs


def run_traced(jobs, seconds: int, root: Path):
    """Untraced and traced in-process passes; per-layer metrics."""
    sys.path.insert(0, str(root / "src"))
    import biverify
    import biverify.cli as cli

    _require_package_under(root, biverify.__file__)
    tracer = tracing.biverify_tracer()
    walls = {False: [], True: []}
    layers, passes = [], []
    start = time.perf_counter()
    # Two traced passes at least, so the count metrics can be compared.
    for traced in itertools.chain([False, True, True], itertools.cycle([False, True])):
        if _done(start, len(passes), 3, seconds):
            break
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, runs = _run_in_process(cli, jobs, tracer)
            finally:
                tracer.uninstall()
            layers.append(tracing.layer_metrics(tracer))
        else:
            wall, runs = _run_in_process(cli, jobs)
        walls[traced].append(wall)
        passes.append(runs)

    failed = check_runs(jobs, passes)
    repeats = [name for name, _, _, exact in tracing.PER_LAYER if exact]
    for name in repeats:
        values = sorted({layer[name] for layer in layers})
        if len(values) != 1:
            raise SystemExit(f"SELF-CHECK FAILED: {name} differs across traced passes: {values}")
    metrics = {
        name: (layers[0][name] if name in repeats else statistics.median(l[name] for l in layers))
        for name in layers[0]
    }
    metrics["trace.wall_s"] = statistics.median(walls[True])
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / statistics.median(walls[False])
    samples = {
        "traced_passes": len(walls[True]),
        "untraced_passes": len(walls[False]),
        "missing_functions": sorted(tracer.missing),
    }
    return metrics, len(jobs) * len(passes), failed, samples


def _git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "biverify").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "nproc": NPROC,
        "blas_threads": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "biverify" / "cli.py").is_file():
        print(f"no biverify sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=root) as work:
        jobs = workloads.build(args.workload, args.seed, Path(work))
        if args.trace:
            metrics, attempted, failed, samples = run_traced(jobs, args.seconds, root)
            units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
        else:
            metrics, attempted, failed, samples = run_end_to_end(
                jobs, args.seconds, root, Path(work)
            )
            units = {name: unit for name, unit, _ in END_TO_END}
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_ratio": failed / attempted,
        "samples": samples,
        "environment": environment(root, args.seed),
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
