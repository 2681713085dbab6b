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

Only the closed-form ``analysis`` layer loads with this module, so
``figure1``, ``--help`` and usage errors run without numpy; a numeric
command imports the modules it calls inside the command and calls through
their attributes (``states.depolarize``), so a wrapper installed on a
module function is the one called.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

from . import analysis
from .errors import BiverifyError, OutOfRangeError

if TYPE_CHECKING:
    from . import states, strategies

CSV_HEADER = "theta,N_PLM,N_I,N_II,N_IV,N_V,N_VI"


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


# JobConfig field -> (type check, description, whether null is accepted)
_FIELD_TYPES = {
    "strategy": (_is_str, "a string", True),
    "d": (_is_int, "an integer", True),
    "schmidt": (_is_number_list, "a list of numbers", True),
    "theta": (_is_number, "a number", True),
    "p": (_is_number, "a number", True),
    "m": (_is_int, "an integer", True),
    "epsilon": (_is_number, "a number", False),
    "delta": (_is_number, "a number", False),
    "noise": (_is_str, "a string", False),
    "trials": (_is_int, "an integer", False),
    "seed": (_is_int, "an integer", False),
}


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
        for key, value in data.items():
            check, kind, nullable = _FIELD_TYPES[key]
            if not (check(value) or (nullable and value is None)):
                raise OutOfRangeError(
                    f"config field {key!r} must be {kind}, got {value!r}"
                )
        return cls(**data)

    def target_state(self) -> states.SchmidtState:
        from . import states

        if (self.schmidt is None) == (self.theta is None):
            raise OutOfRangeError("exactly one of schmidt or theta must be given")
        if self.theta is not None:
            if self.d not in (None, 2):
                raise OutOfRangeError("theta shorthand implies d = 2")
            return states.two_qubit_state(self.theta)
        return states.make_schmidt_state(self.schmidt, self.d)

    def build_strategy(self) -> strategies.Strategy:
        from . import strategies

        if not self.strategy:
            raise OutOfRangeError("a strategy kind (I..VI) is required")
        return strategies.build_strategy(
            self.target_state(), self.strategy, p=self.p, m=self.m
        )

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
    import numpy as np

    from . import states

    data = _load_json(path, "noise file")
    if not isinstance(data, dict) or "real" not in data:
        raise OutOfRangeError(
            f"noise file {path!r} must be a JSON object with a \"real\" matrix "
            "(and optionally \"imag\")"
        )
    try:
        real = np.asarray(data["real"], dtype=float)
        imag = np.asarray(data.get("imag", np.zeros_like(real)), dtype=float)
        matrix = real + 1j * imag
    except (TypeError, ValueError) as exc:
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


def _strategy_summary(strategy: strategies.Strategy) -> dict:
    from . import strategies

    return {
        "label": strategy.label,
        "d": strategy.state.d,
        "p": strategy.p,
        "beta": strategy.beta,
        "nu": strategy.nu,
        "homogeneous": strategies.is_homogeneous(strategy),
    }


def cmd_analyze(args) -> int:
    from . import strategies

    config = _config_from_args(args)
    state = config.target_state()
    strategy = config.build_strategy()
    n_iid = analysis.tests_needed(strategy.nu, config.epsilon, config.delta)
    n_adv = (
        analysis.tests_needed_adversarial(strategy.beta, config.epsilon, config.delta)
        if strategy.beta > 0.0
        else None
    )
    summary = _strategy_summary(strategy)
    summary["optimal_p"] = strategies.optimal_p(strategy.state, strategy.label)
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
    lines = [
        f"strategy {strategy.label} for d={state.d}"
        + (f" (embedded into d={strategy.state.d})" if strategy.state.d != state.d else ""),
        f"p = {strategy.p:.17g} (optimal {summary['optimal_p']:.17g})",
        f"beta = {strategy.beta:.17g}",
        f"nu = {strategy.nu:.17g}",
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
    from . import bases

    tol = bases.DESIGN_ATOL if args.tol is None else args.tol
    design = bases._design(args.d, args.m)
    bases._check_tolerance(tol)
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
        "strategy": _strategy_summary(strategy),
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
        "strategy": _strategy_summary(strategy),
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
    # None stands for bases.DESIGN_ATOL, read in the command so that --help
    # loads no numpy
    p_chk.add_argument("--tol", type=float, default=None)
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
