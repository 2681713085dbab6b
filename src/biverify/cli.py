"""Command-line interface.

Subcommands
-----------
analyze            spectral data and test budgets for a configured strategy
figure1            CSV of required test counts versus theta for two qubits
check-design       build a weighted basis set and verify the 2-design identity
simulate           Monte Carlo run against a noisy state, JSON output
estimate-fidelity  fidelity estimate from a homogeneous strategy, JSON output

Configuration comes from flags or a JSON file (--config); flags win.  For
d = 2, ``--theta T`` is sugar for ``--schmidt cos(T),sin(T)``.  Exit codes:
0 success, 1 failed check, 2 validation error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import analysis, bases, simulate, strategies
from .errors import BiverifyError, OutOfRangeError
from .states import (
    DensityOperator,
    SchmidtState,
    density_operator,
    depolarize,
    embed_density,
    make_schmidt_state,
    two_qubit_state,
)

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

    def target_state(self) -> SchmidtState:
        if (self.schmidt is None) == (self.theta is None):
            raise OutOfRangeError("exactly one of schmidt or theta must be given")
        if self.theta is not None:
            if self.d not in (None, 2):
                raise OutOfRangeError("theta shorthand implies d = 2")
            return two_qubit_state(self.theta)
        state = make_schmidt_state(self.schmidt, self.d)
        return state

    def build_strategy(self) -> strategies.Strategy:
        if not self.strategy:
            raise OutOfRangeError("a strategy kind (I..VI) is required")
        return strategies.build_strategy(
            self.target_state(), self.strategy, p=self.p, m=self.m
        )

    def noise_state(self, strategy: strategies.Strategy) -> DensityOperator:
        """Density operator of the source, embedded if the strategy was."""
        target = self.target_state()
        spec = self.noise.strip()
        if spec == "none":
            sigma = depolarize(target, 0.0)
        elif spec.startswith("depolarize:"):
            text = spec.split(":", 1)[1]
            try:
                lam = float(text)
            except ValueError as exc:
                raise OutOfRangeError(f"cannot parse depolarizing weight {text!r}") from exc
            sigma = depolarize(target, lam)
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
            sigma = embed_density(sigma, strategy.state.d)
        return sigma


def _load_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise OutOfRangeError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def _load_density(path: str) -> DensityOperator:
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
    return density_operator(matrix)


def _parse_schmidt(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise OutOfRangeError(f"cannot parse schmidt coefficients {text!r}") from exc


def _config_from_args(args) -> JobConfig:
    data = JobConfig().to_dict()
    if getattr(args, "config", None):
        file_data = _load_json(args.config, "config file")
        data.update(JobConfig.from_dict(file_data).to_dict())
    overrides = {
        "strategy": args.strategy,
        "d": args.d,
        "schmidt": _parse_schmidt(args.schmidt) if args.schmidt else None,
        "theta": args.theta,
        "p": args.p,
        "m": args.m,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "noise": args.noise,
        "trials": args.trials,
        "seed": args.seed,
    }
    data.update({k: v for k, v in overrides.items() if v is not None})
    return JobConfig.from_dict(data)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _strategy_summary(strategy: strategies.Strategy) -> dict:
    return {
        "label": strategy.label,
        "d": strategy.state.d,
        "p": strategy.p,
        "beta": strategy.beta,
        "nu": strategy.nu,
        "homogeneous": strategies.is_homogeneous(strategy),
    }


def cmd_analyze(args) -> int:
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
    if args.m is None and bases.is_prime(args.d):
        basis_set = bases.prime_mub_set(args.d)
        label = f"complete MUB set d={args.d}"
    else:
        basis_set = bases.roy_scott_set(args.d, args.m)
        label = f"phase-basis design d={args.d} m={basis_set.m}"
    ok, residual = bases.verify_2design(basis_set, tol=args.tol)
    status = "PASS" if ok else "FAIL"
    _emit(
        f"2-design check [{label}]: {status} residual={residual:.3e} "
        f"(tolerance {args.tol:.1e})\n",
        args.out,
    )
    return 0 if ok else 1


def cmd_simulate(args) -> int:
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (64-bit)")
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--config", default=None, help="JSON config file")

    job = argparse.ArgumentParser(add_help=False)
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

    parser = argparse.ArgumentParser(
        prog="biverify",
        description="Verification strategies for bipartite pure states: "
        "construction, spectral analysis, and Monte Carlo simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", parents=[common, job], help="spectral report")
    p_an.set_defaults(func=cmd_analyze)

    p_fig = sub.add_parser("figure1", parents=[common], help="test counts vs theta (CSV)")
    p_fig.add_argument("--grid-size", type=int, default=100)
    p_fig.add_argument("--epsilon", type=float, default=0.01)
    p_fig.add_argument("--delta", type=float, default=0.01)
    p_fig.set_defaults(func=cmd_figure1)

    p_chk = sub.add_parser("check-design", parents=[common], help="verify a 2-design")
    p_chk.add_argument("--d", type=int, required=True)
    p_chk.add_argument("--m", type=int, default=None)
    p_chk.add_argument("--tol", type=float, default=bases.DESIGN_ATOL)
    p_chk.set_defaults(func=cmd_check_design)

    p_sim = sub.add_parser("simulate", parents=[common, job], help="Monte Carlo run")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser(
        "estimate-fidelity", parents=[common, job], help="fidelity from pass rate"
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
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
