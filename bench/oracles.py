"""Output checks written from the paper's formulas.

Nothing here calls the package: every expected value -- the optimal mixing
probability and closed-form beta of each strategy kind, test budgets, the
exact pass rate of a depolarized source, the Figure-1 counts -- is computed
from the target's Schmidt coefficients and the job's own inputs.  Each check
returns a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import json
import math

BETA_TOL = 1e-10
P_TOL = 1e-12
RATE_TOL = 1e-9
REL_TOL = 1e-9
SIGMAS = 5.0
# A test count is ceil(q); when q lies this close to an integer, round-off in
# a reordered but equivalent formula may land on either side.
COUNT_SLACK = 1e-9

FIGURE1_HEADER = "theta,N_PLM,N_I,N_II,N_IV,N_V,N_VI"


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def strategy_dim(kind: str, d: int) -> int:
    """Kind II needs a complete MUB set, so composite d embeds into the next prime."""
    if kind != "II":
        return d
    while not is_prime(d):
        d += 1
    return d


def optimal_p(kind: str, coeffs) -> float:
    """Default mixing probability: the gap-maximizing p for I-IV,
    max(1/e, c0^2/(1+c0^2)) for V and 1/e for VI."""
    c0, c1 = coeffs[0] ** 2, coeffs[1] ** 2
    if kind == "I":
        return 0.5
    if kind in ("II", "III"):
        return c0 / (1.0 + c0)
    if kind == "IV":
        return (c0 + c1) / (2.0 + c0 + c1)
    if kind == "V":
        return max(1.0 / math.e, c0 / (1.0 + c0))
    return 1.0 / math.e


def closed_form_beta(kind: str, coeffs, p: float) -> float:
    c0, c1 = coeffs[0] ** 2, coeffs[1] ** 2
    if kind == "I":
        return max(p, 1.0 - p)
    if kind in ("II", "III"):
        return max(p, (1.0 - p) * c0)
    if kind == "IV":
        return max(p, (1.0 - p) * (c0 + c1) / 2.0)
    return p


def trace_omega_on_target_space(kind: str, coeffs, p: float) -> float:
    """Sum of <jk|Omega|jk> over the d^2 product states of the target space.

    The standard test contributes one per supported outcome (the Schmidt
    rank r), each design average contributes sum_k d c_k^2 = d, and the
    homogeneous kinds have trace 1 + p (d^2 - 1).  The sum is the same after
    kind II's zero-padding, because the padded diagonal entries are skipped.
    """
    d = len(coeffs)
    if kind in ("V", "VI"):
        return 1.0 + p * (d * d - 1)
    rank = sum(1 for c in coeffs if c > 0.0)
    return p * rank + (1.0 - p) * d


def depolarized_rate(kind: str, coeffs, p: float, lam: float) -> float:
    """tr(Omega sigma) for sigma = (1-lam)|Psi><Psi| + lam I/d^2."""
    d = len(coeffs)
    return (1.0 - lam) + lam * trace_omega_on_target_space(kind, coeffs, p) / (d * d)


def count_ok(count, numerator: float, denominator: float) -> bool:
    """``count`` is ceil(numerator / denominator), up to boundary round-off."""
    q = numerator / denominator
    if count == math.ceil(q):
        return True
    return abs(q - round(q)) < COUNT_SLACK and count in (round(q), round(q) + 1)


def tests_needed_ok(count, nu: float, epsilon: float, delta: float) -> bool:
    """N = ceil(ln delta / ln(1 - nu epsilon)) for an i.i.d. source."""
    return count_ok(count, math.log(delta), math.log(1.0 - nu * epsilon))


def adversarial_tests(beta: float, epsilon: float, delta: float) -> float:
    return math.log(1.0 / delta) / (beta * epsilon * math.log(1.0 / beta))


def plm_nu(theta: float) -> float:
    """Gap of the Pallister-Linden-Montanaro two-qubit strategy."""
    return 1.0 / (2.0 + math.cos(theta) * math.sin(theta))


def _close(a, b, tol) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


def _rel_close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check_strategy(summary: dict, job) -> list[str]:
    kind, coeffs = job.kind, job.coeffs
    p = optimal_p(kind, coeffs)
    beta = closed_form_beta(kind, coeffs, p)
    problems = []
    if summary.get("label") != kind:
        problems.append(f"label {summary.get('label')!r} != {kind!r}")
    if summary.get("d") != strategy_dim(kind, len(coeffs)):
        problems.append(f"d {summary.get('d')} != {strategy_dim(kind, len(coeffs))}")
    if not _close(summary.get("p"), p, P_TOL):
        problems.append(f"p {summary.get('p')!r} != {p!r}")
    if not _close(summary.get("beta"), beta, BETA_TOL):
        problems.append(f"beta {summary.get('beta')!r} != closed form {beta!r}")
    if not _close(summary.get("nu"), 1.0 - beta, BETA_TOL):
        problems.append(f"nu {summary.get('nu')!r} != 1 - beta {1.0 - beta!r}")
    if kind in ("V", "VI") and summary.get("homogeneous") is not True:
        problems.append(f"kind {kind} is not reported homogeneous")
    return problems


def check_analyze(payload: dict, job) -> list[str]:
    report = payload.get("analysis", {})
    problems = check_strategy(report, job)
    if not _close(report.get("optimal_p"), optimal_p(job.kind, job.coeffs), P_TOL):
        problems.append(f"optimal_p {report.get('optimal_p')!r} is wrong")
    nu, beta = report.get("nu"), report.get("beta")
    if problems:
        return problems
    eps, delta = report.get("epsilon"), report.get("delta")
    if not tests_needed_ok(report.get("tests_needed"), nu, eps, delta):
        problems.append(f"tests_needed {report.get('tests_needed')!r} for nu={nu!r}")
    adversarial = report.get("tests_needed_adversarial")
    if beta > 0.0 and not _rel_close(adversarial, adversarial_tests(beta, eps, delta)):
        problems.append(f"tests_needed_adversarial {adversarial!r} for beta={beta!r}")
    return problems


def expected_rate(job) -> float | None:
    """tr(Omega sigma) from the job's inputs, when a closed form applies."""
    p = optimal_p(job.kind, job.coeffs)
    if job.depolarize is not None:
        return depolarized_rate(job.kind, job.coeffs, p, job.depolarize)
    if job.kind in ("V", "VI"):
        beta = closed_form_beta(job.kind, job.coeffs, p)
        return (1.0 - beta) * job.fidelity + beta
    return None


def check_monte_carlo(payload: dict, job) -> list[str]:
    problems = check_strategy(payload.get("strategy", {}), job)
    record = payload.get("record", {})
    n, n_pass = record.get("n_trials"), record.get("n_pass")
    if n != job.trials or not isinstance(n_pass, int) or not 0 <= n_pass <= n:
        return problems + [f"bad tallies n_trials={n!r} n_pass={n_pass!r}"]
    rate = record.get("pass_rate")
    if rate != n_pass / n:
        problems.append(f"pass_rate {rate!r} != n_pass / n_trials")
        return problems
    exact = record.get("exact_rate")
    beta = closed_form_beta(job.kind, job.coeffs, optimal_p(job.kind, job.coeffs))
    if job.kind in ("V", "VI") and not _close(exact, (1.0 - beta) * job.fidelity + beta, RATE_TOL):
        problems.append(f"exact_rate {exact!r} != (1 - beta) F + beta")
    own = expected_rate(job)
    if own is not None and not _close(exact, own, RATE_TOL):
        problems.append(f"exact_rate {exact!r} != closed form {own!r}")
    center = own if own is not None else exact
    if not isinstance(center, float):
        return problems + [f"exact_rate {exact!r} is not a number"]
    sigma = math.sqrt(center * (1.0 - center) / n)
    if abs(rate - center) > SIGMAS * sigma:
        problems.append(f"pass_rate {rate!r} is over 5 sigma ({sigma:.3g}) from {center!r}")
    if job.command == "estimate-fidelity":
        f_hat = payload.get("estimate", {}).get("f_hat")
        if not _close(f_hat, job.fidelity, SIGMAS * sigma / (1.0 - beta)):
            problems.append(f"f_hat {f_hat!r} is over 5 sigma from F={job.fidelity!r}")
        elif not _close(f_hat, (rate - beta) / (1.0 - beta), BETA_TOL):
            problems.append(f"f_hat {f_hat!r} != (rate - beta)/(1 - beta)")
    return problems


def check_figure1(text: str, job) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != FIGURE1_HEADER:
        return [f"figure1 header {lines[:1]!r}"]
    rows = lines[1:]
    if len(rows) != job.grid_size:
        return [f"figure1 has {len(rows)} rows, expected {job.grid_size}"]
    eps, delta = _eps_delta(job)
    adv_vi = adversarial_tests(1.0 / math.e, eps, delta)
    problems = []
    for i, row in enumerate(rows):
        try:
            theta, n_plm, n_i, n_ii, n_iv, n_v, n_vi = row.split(",")
            theta, n_v, n_vi = float(theta), float(n_v), float(n_vi)
            n_plm, n_i, n_ii, n_iv = int(n_plm), int(n_i), int(n_ii), int(n_iv)
        except ValueError:
            problems.append(f"figure1 row {i} is malformed: {row!r}")
            continue
        c2 = math.cos(theta) ** 2
        ok = (
            abs(theta - (i + 1) * math.pi / 4 / job.grid_size) <= 1e-15
            and tests_needed_ok(n_plm, plm_nu(theta), eps, delta)
            and tests_needed_ok(n_i, 0.5, eps, delta)
            and tests_needed_ok(n_ii, 1.0 / (1.0 + c2), eps, delta)
            and tests_needed_ok(n_iv, 2.0 / 3.0, eps, delta)
            and _rel_close(n_v, adversarial_tests(max(1.0 / math.e, c2 / (1.0 + c2)), eps, delta))
            and _rel_close(n_vi, adv_vi)
        )
        if not ok:
            problems.append(f"figure1 row {i} disagrees with the closed forms: {row!r}")
    return problems


def _eps_delta(job) -> tuple[float, float]:
    argv = list(job.argv)
    return float(argv[argv.index("--epsilon") + 1]), float(argv[argv.index("--delta") + 1])


def check_output(job, stdout: str) -> list[str]:
    """All problems with one job's standard output."""
    if job.command == "figure1":
        return check_figure1(stdout, job)
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if job.command == "analyze":
        return check_analyze(payload, job)
    return check_monte_carlo(payload, job)
