"""Command-line interface.

Subcommands
-----------
analyze            spectral data and test budgets for a configured strategy
figure1            CSV of required test counts versus theta for two qubits
check-design       certify a built-in design's 2-design identity from its table
simulate           Monte Carlo run against a noisy state, JSON output
estimate-fidelity  fidelity estimate from a homogeneous strategy, JSON output

Configuration comes from flags or a JSON file (--config); flags win.  For
d = 2, ``--theta T`` is sugar for ``--schmidt cos(T),sin(T)``.  Exit codes:
0 success, 1 failed check, 2 validation error or refused allocation
(MemoryError), 3 I/O error.

Only the numpy-free ``analysis`` and ``designs`` layers load with this
module, so ``figure1``, ``check-design``, ``analyze``, ``--help`` and usage
errors run without numpy: ``analyze`` prints a built-in strategy's scalar
record (``analysis._strategy_record``) and ``check-design`` certifies a
design from its integer table.  ``simulate`` and ``estimate-fidelity``
import the modules they call inside the command and call through their
attributes (``states.depolarize``), so a wrapper installed on a module
function is the one called.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

from . import analysis, designs
from .errors import BiverifyError, OutOfRangeError, _integer_arg, _real_arg

if TYPE_CHECKING:
    from . import states, strategies

CSV_HEADER = "theta,N_PLM,N_I,N_II,N_IV,N_V,N_VI"


def _check_config_value(name: str, kind: str, value) -> None:
    """Refuse ``value`` unless it has the type ``kind``, a JobConfig field's
    annotation less ``| None``; an int (a size or a seed) must be >= 0, and
    the command checks the rest of a number's range."""
    if kind == "int":
        _integer_arg(name, value, 0)
    elif kind == "float":
        _real_arg(name, value)
    elif kind == "list[float]":
        if not isinstance(value, list):
            raise OutOfRangeError(f"{name} must be a list of numbers, got {value!r}")
        for entry in value:
            _real_arg(f"each entry of {name}", entry)
    elif not isinstance(value, str):
        raise OutOfRangeError(f"{name} must be a string, got {value!r}")


@dataclass
class JobConfig:
    """One verification job, as given on the command line or in a JSON file."""

    strategy: str | None = None
    d: int | None = None
    schmidt: list[float] | None = None
    theta: float | None = None
    p: float | None = None
    m: int | None = None
    epsilon: float = 0.01
    delta: float = 0.01
    noise: str = "none"
    trials: int = 100000
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobConfig":
        if not isinstance(data, dict):
            raise OutOfRangeError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise OutOfRangeError(f"unknown config keys: {sorted(unknown)}")
        # a field whose default is None also takes null
        for field in fields(cls):
            value = data.get(field.name)
            if field.name in data and not (value is None and field.default is None):
                kind = field.type.split(" | ")[0]
                _check_config_value(f"config field {field.name!r}", kind, value)
        return cls(**data)

    def target_amplitudes(self) -> list[float]:
        """The target's Schmidt coefficients, sorted and normalized, with no
        numpy (``analysis._unit_amplitudes``)."""
        if (self.schmidt is None) == (self.theta is None):
            raise OutOfRangeError("exactly one of schmidt or theta must be given")
        if self.theta is not None:
            if self.d not in (None, 2):
                raise OutOfRangeError("theta shorthand implies d = 2")
            return analysis._two_qubit_amplitudes(self.theta)
        return analysis._unit_amplitudes(self.schmidt, self.d)

    def target_state(self) -> states.SchmidtState:
        from . import states

        coeffs = self.target_amplitudes()
        return states.SchmidtState(len(coeffs), coeffs)

    def _kind(self) -> str:
        if not self.strategy:
            raise OutOfRangeError("a strategy kind (I..VI) is required")
        return self.strategy

    def build_strategy(self) -> strategies.Strategy:
        from . import strategies

        kind = self._kind()
        return strategies.build_strategy(self.target_state(), kind, p=self.p, m=self.m)

    def noise_state(self, strategy: strategies.Strategy) -> states.DensityOperator:
        """Density operator of the source, embedded if the strategy was."""
        from . import states

        target = self.target_state()
        spec = self.noise.strip()
        if spec == "none":
            sigma = states.depolarize(target, 0.0)
        elif spec.startswith("depolarize:"):
            text = spec.split(":", 1)[1]
            try:
                lam = float(text)
            except ValueError as exc:
                raise OutOfRangeError(f"cannot parse depolarizing weight {text!r}") from exc
            sigma = states.depolarize(target, lam)
        elif spec.startswith("file:"):
            sigma = _load_density(spec.split(":", 1)[1])
        else:
            raise OutOfRangeError(
                f"noise must be 'none', 'depolarize:LAMBDA', or 'file:PATH', got {spec!r}"
            )
        if sigma.dim != target.dim:
            raise OutOfRangeError(
                f"noise state has dimension {sigma.dim}, target needs {target.dim}"
            )
        if strategy.state.d != target.d:
            sigma = states.embed_density(sigma, strategy.state.d)
        return sigma


def _load_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise OutOfRangeError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def _load_density(path: str) -> states.DensityOperator:
    from . import linalg, states

    data = _load_json(path, "noise file")
    if not isinstance(data, dict) or "real" not in data:
        raise OutOfRangeError(
            f"noise file {path!r} must be a JSON object with a \"real\" matrix "
            "(and optionally \"imag\")"
        )
    # a string, a ragged row or an entry no double holds is refused here
    real = linalg.real_array(data["real"], f"noise file {path!r}")
    imag = linalg.real_array(data.get("imag", 0.0), f"noise file {path!r}")
    try:
        matrix = real + 1j * imag
    except ValueError as exc:
        raise OutOfRangeError(f"noise file {path!r} holds no numeric matrix: {exc}") from exc
    return states.density_operator(matrix)


def _parse_schmidt(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise OutOfRangeError(f"cannot parse schmidt coefficients {text!r}") from exc


def _config_from_args(args) -> JobConfig:
    data = JobConfig().to_dict()
    if args.config:
        file_data = _load_json(args.config, "config file")
        data.update(JobConfig.from_dict(file_data).to_dict())
    # each JobConfig field is the dest of the job flag of the same name
    for field in fields(JobConfig):
        value = getattr(args, field.name)
        if value is not None:
            data[field.name] = _parse_schmidt(value) if field.name == "schmidt" else value
    return JobConfig.from_dict(data)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _strategy_summary(record: analysis._StrategyRecord) -> dict:
    return {
        "label": record.label,
        "d": record.d,
        "p": record.p,
        "beta": record.beta,
        "nu": 1.0 - record.beta,
        "homogeneous": record.deviation <= analysis._HOMOGENEITY_ATOL,
    }


def cmd_analyze(args) -> int:
    config = _config_from_args(args)
    coeffs = config.target_amplitudes()
    record = analysis._strategy_record(config._kind(), coeffs, config.p, config.m)
    summary = _strategy_summary(record)
    n_iid = analysis.tests_needed(summary["nu"], config.epsilon, config.delta)
    n_adv = (
        analysis.tests_needed_adversarial(record.beta, config.epsilon, config.delta)
        if record.beta > 0.0
        else None
    )
    summary["optimal_p"] = record.optimal_p
    payload = {
        "config": config.to_dict(),
        "analysis": {
            **summary,
            "epsilon": config.epsilon,
            "delta": config.delta,
            "tests_needed": n_iid,
            "tests_needed_adversarial": n_adv,
        },
    }
    if args.json:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    d = len(coeffs)
    lines = [
        f"strategy {record.label} for d={d}"
        + (f" (embedded into d={record.d})" if record.d != d else ""),
        f"p = {record.p:.17g} (optimal {record.optimal_p:.17g})",
        f"beta = {record.beta:.17g}",
        f"nu = {summary['nu']:.17g}",
        f"homogeneous = {summary['homogeneous']}",
        f"tests needed (epsilon={config.epsilon:g}, delta={config.delta:g}): {n_iid}",
        "tests needed, adversarial source: "
        + (f"{n_adv:.17g}" if n_adv is not None else "n/a (beta = 0)"),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_figure1(args) -> int:
    grid = analysis.figure1_grid(args.grid_size)
    rows = analysis.figure1_table(grid, args.epsilon, args.delta)
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.theta:.17g},{r.n_plm},{r.n_i},{r.n_ii},{r.n_iv},"
            f"{r.n_v:.17g},{r.n_vi:.17g}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_check_design(args) -> int:
    tol = _real_arg("tolerance", args.tol, 0.0, math.inf, hi_open=True)
    design = designs._design(args.d, args.m)
    residual = design.residual()
    ok = residual <= tol
    status = "PASS" if ok else "FAIL"
    _emit(
        f"2-design check [{design.name}]: {status} residual={residual:.3e} "
        f"(tolerance {tol:.1e})\n",
        args.out,
    )
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    from . import simulate

    config = _config_from_args(args)
    strategy = config.build_strategy()
    sigma = config.noise_state(strategy)
    record = simulate.run_verification(strategy, sigma, config.trials, config.seed)
    payload = {
        "config": config.to_dict(),
        "strategy": _strategy_summary(strategy._record),
        "record": asdict(record),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_estimate_fidelity(args) -> int:
    from . import simulate

    config = _config_from_args(args)
    strategy = config.build_strategy()
    sigma = config.noise_state(strategy)
    estimate = simulate.estimate_fidelity(strategy, sigma, config.trials, config.seed)
    payload = {
        "config": config.to_dict(),
        "strategy": _strategy_summary(strategy._record),
        "record": asdict(estimate.record),
        "estimate": {"f_hat": estimate.f_hat, "std_err": estimate.std_err},
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # each subcommand gets only the flags it reads, so a flag that would
    # change nothing is a usage error (exit 2); abbreviations are refused,
    # so that --d is never taken for --delta
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write output to this path")

    job = argparse.ArgumentParser(add_help=False)
    job.add_argument("--config", default=None, help="JSON config file")
    job.add_argument("--strategy", default=None, help="strategy kind I..VI")
    job.add_argument("--d", type=int, default=None, help="local dimension")
    job.add_argument("--schmidt", default=None, help="comma-separated amplitudes")
    job.add_argument("--theta", type=float, default=None, help="two-qubit angle")
    job.add_argument("--p", type=float, default=None, help="mixing probability")
    job.add_argument("--m", type=int, default=None, help="number of design bases")
    job.add_argument("--epsilon", type=float, default=None, help="infidelity threshold")
    job.add_argument("--delta", type=float, default=None, help="significance level")
    job.add_argument("--noise", default=None, help="none | depolarize:L | file:PATH")
    job.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    job.add_argument("--seed", type=int, default=None, help="RNG seed (64-bit)")

    parser = argparse.ArgumentParser(
        prog="biverify",
        description="Verification strategies for bipartite pure states: "
        "construction, spectral analysis, and Monte Carlo simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser(
        "analyze", parents=[output, job], allow_abbrev=False, help="spectral report"
    )
    p_an.add_argument("--json", action="store_true", help="emit JSON")
    p_an.set_defaults(func=cmd_analyze)

    p_fig = sub.add_parser(
        "figure1", parents=[output], allow_abbrev=False, help="test counts vs theta (CSV)"
    )
    p_fig.add_argument("--grid-size", type=int, default=100)
    p_fig.add_argument("--epsilon", type=float, default=0.01)
    p_fig.add_argument("--delta", type=float, default=0.01)
    p_fig.set_defaults(func=cmd_figure1)

    p_chk = sub.add_parser(
        "check-design", parents=[output], allow_abbrev=False, help="verify a 2-design"
    )
    p_chk.add_argument("--d", type=int, required=True)
    p_chk.add_argument("--m", type=int, default=None)
    p_chk.add_argument("--tol", type=float, default=designs.DESIGN_ATOL)
    p_chk.set_defaults(func=cmd_check_design)

    p_sim = sub.add_parser(
        "simulate", parents=[output, job], allow_abbrev=False, help="Monte Carlo run"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser(
        "estimate-fidelity",
        parents=[output, job],
        allow_abbrev=False,
        help="fidelity from pass rate",
    )
    p_est.set_defaults(func=cmd_estimate_fidelity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BiverifyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
