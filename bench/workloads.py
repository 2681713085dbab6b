"""Seeded job sequences for the benchmark workloads.

Every input -- Schmidt vectors, theta values, noise weights, noise states and
Monte Carlo seeds -- is drawn from the workload seed.  The package only sees
the generated command lines and files; the expected values the output oracles
need are kept beside each command line.
"""
from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("two-qubit", "mc-many-tests", "design-d16")

EPSILON = 0.01
DELTA = 0.01

# Trial counts are sized so that sampling dominates each two-qubit job (a
# job samples for about 1 s after 0.15 s of interpreter start-up), while the
# d=12 jobs spend comparable time building tests and sampling.
TWO_QUBIT_TRIALS = 10_000_000
MANY_TESTS_TRIALS = 250_000
# design-d16 is the no-sampling workload; its one simulate job draws a single
# RNG block so that it reports trials_per_s without exercising the sampler.
DESIGN_TRIALS = 4096
FIGURE1_GRID = 4000


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the inputs its output is checked against.

    ``coeffs`` are the target's Schmidt coefficients as passed (sorted and
    normalized), ``depolarize`` the noise weight when the source is the
    depolarized target, and ``fidelity`` the benchmark's own
    <Psi|sigma|Psi> of the source.
    """

    command: str
    argv: tuple[str, ...]
    kind: str | None = None
    coeffs: tuple[float, ...] = ()
    depolarize: float | None = None
    fidelity: float | None = None
    trials: int = 0
    grid_size: int = 0

    @property
    def monte_carlo(self) -> bool:
        return self.command in ("simulate", "estimate-fidelity")

    @property
    def label(self) -> str:
        d = len(self.coeffs)
        return f"{self.command}:{self.kind}:d{d}" if self.kind else self.command


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def _schmidt(rng: np.random.Generator, d: int, rank: int) -> tuple[float, ...]:
    raw = np.zeros(d)
    raw[:rank] = np.sort(rng.uniform(0.05, 1.0, rank))[::-1]
    return tuple(float(c) for c in raw / np.linalg.norm(raw))


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _mc_job(command, kind, coeffs, target_args, noise, trials, rng, depolarize, fidelity):
    seed = int(rng.integers(0, 2**32))
    argv = (
        command, *target_args, "--strategy", kind, "--noise", noise,
        "--trials", str(trials), "--seed", str(seed),
        "--epsilon", repr(EPSILON), "--delta", repr(DELTA),
    )
    return Job(command, argv, kind, coeffs, depolarize, fidelity, trials)


def _depolarized(rng):
    lam = float(rng.uniform(0.02, 0.3))
    return lam, f"depolarize:{lam!r}"


def _depolarized_fidelity(coeffs, lam) -> float:
    """<Psi| (1-lam)|Psi><Psi| + lam I/d^2 |Psi> = 1 - lam + lam/d^2."""
    return 1.0 - lam + lam / len(coeffs) ** 2


def _file_noise(rng, coeffs, weight, path: Path) -> tuple[str, float]:
    """Write (1-w)|Psi><Psi| + w R with R a random full-rank state; return
    the noise spec and the state's fidelity with the target."""
    d = len(coeffs)
    dd = d * d
    psi = np.zeros(dd)
    psi[np.arange(d) * (d + 1)] = coeffs
    g = rng.standard_normal((dd, dd)) + 1j * rng.standard_normal((dd, dd))
    r = g @ g.conj().T
    r /= np.trace(r).real
    rho = (1.0 - weight) * np.outer(psi, psi) + weight * r
    rho = 0.5 * (rho + rho.conj().T)
    fidelity = float((psi @ rho @ psi).real)
    path.write_text(json.dumps({"real": rho.real.tolist(), "imag": rho.imag.tolist()}))
    return f"file:{path}", fidelity


def _two_qubit(rng, workdir):
    jobs = [
        Job(
            "figure1",
            ("figure1", "--grid-size", str(FIGURE1_GRID),
             "--epsilon", repr(EPSILON), "--delta", repr(DELTA)),
            grid_size=FIGURE1_GRID,
        )
    ]
    plan = [("simulate", k) for k in ("I", "II", "IV", "V", "VI")]
    plan += [("estimate-fidelity", k) for k in ("V", "VI")]
    for command, kind in plan:
        theta = float(rng.uniform(0.1, math.pi / 4))
        coeffs = (math.cos(theta), math.sin(theta))
        lam, noise = _depolarized(rng)
        jobs.append(
            _mc_job(command, kind, coeffs, ("--theta", repr(theta)), noise,
                    TWO_QUBIT_TRIALS, rng, lam, _depolarized_fidelity(coeffs, lam))
        )
    return jobs


def _many_tests(rng, workdir):
    d = 12
    jobs = []
    for kind in ("II", "III", "IV", "V", "VI"):
        # II and IV get a zero Schmidt tail, so some outcomes are unsupported;
        # II at composite d also takes the embedding into d = 13.
        rank = int(rng.integers(7, 12)) if kind in ("II", "IV") else d
        coeffs = _schmidt(rng, d, rank)
        target = ("--d", str(d), "--schmidt", _fmt(coeffs))
        if kind == "VI":
            weight = float(rng.uniform(0.1, 0.3))
            noise, fidelity = _file_noise(rng, coeffs, weight, workdir / "noise-d12.json")
            lam = None
        else:
            lam, noise = _depolarized(rng)
            fidelity = _depolarized_fidelity(coeffs, lam)
        jobs.append(
            _mc_job("simulate", kind, coeffs, target, noise, MANY_TESTS_TRIALS,
                    rng, lam, fidelity)
        )
    return jobs


def _design(rng, workdir):
    jobs = []
    for d, kind in ((16, "III"), (16, "IV"), (16, "V"), (16, "VI"), (17, "II")):
        coeffs = _schmidt(rng, d, d)
        argv = (
            "analyze", "--json", "--d", str(d), "--schmidt", _fmt(coeffs),
            "--strategy", kind, "--epsilon", repr(EPSILON), "--delta", repr(DELTA),
        )
        jobs.append(Job("analyze", argv, kind, coeffs))
    coeffs = _schmidt(rng, 17, 17)
    lam, noise = _depolarized(rng)
    jobs.append(
        _mc_job("simulate", "II", coeffs, ("--d", "17", "--schmidt", _fmt(coeffs)),
                noise, DESIGN_TRIALS, rng, lam, _depolarized_fidelity(coeffs, lam))
    )
    return jobs


_GENERATORS = {"two-qubit": _two_qubit, "mc-many-tests": _many_tests, "design-d16": _design}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's job sequence for ``seed``; noise files go to ``workdir``."""
    return _GENERATORS[workload](_rng(workload, seed), workdir)
