"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import math
import time

import numpy as np

from biverify import (
    build_strategy,
    depolarize,
    estimate_fidelity,
    exact_pass_rate,
    make_schmidt_state,
    min_design_size,
    prime_mub_set,
    random_state_at_fidelity,
    random_unbiased_basis,
    roy_scott_set,
    run_verification,
    standard_test,
    target_projector,
    test_projector,
    tests_needed_adversarial,
    two_qubit_state,
    verify_2design,
    worst_case_state,
)
from biverify import bases
from biverify.cli import main

import dense_oracle as dense

D2_STATE = two_qubit_state(np.pi / 6)
D3_STATE = make_schmidt_state([2.0, 1.0, 1.0])


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_closed_form_spectral_gaps():
    """Spectral gaps of strategies I-IV match the paper's values at 1e-10."""
    start = time.perf_counter()
    worst = 0.0
    for theta in (np.pi / 12, np.pi / 6, np.pi / 4):
        s = two_qubit_state(theta)
        nu_design = 1.0 / (1.0 + math.cos(theta) ** 2)
        for kind, expect in (
            ("I", 0.5),
            ("II", nu_design),
            ("III", nu_design),
            ("IV", 2.0 / 3.0),
        ):
            worst = max(worst, abs(build_strategy(s, kind).nu - expect))
    elapsed = time.perf_counter() - start
    _report(
        "closed-form spectral gaps (I-IV, three angles)",
        worst <= 1e-10 and elapsed < 1.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_figure_table_reproduction(tmp_path):
    """The figure1 CSV hits (1149, 919, 689, 689) at theta=pi/4 and keeps the
    strategy ordering at every grid point."""
    start = time.perf_counter()
    out = tmp_path / "figure1.csv"
    code = main(
        ["figure1", "--grid-size", "100", "--epsilon", "0.01", "--delta", "0.01",
         "--out", str(out)]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    last = rows[-1]
    anchor_ok = (
        abs(float(last[0]) - math.pi / 4) < 1e-12
        and [int(x) for x in last[1:5]] == [1149, 919, 689, 689]
    )
    order_ok = all(
        int(r[1]) > int(r[2]) >= int(r[3]) >= int(r[4]) for r in rows
    )
    elapsed = time.perf_counter() - start
    _report(
        "figure CSV reproduction and ordering",
        anchor_ok and order_ok and elapsed < 1.0,
        f"rows {len(rows)}, {elapsed:.2f}s",
    )


def test_orthogonality_and_design_average_identities():
    """Recentred standard/unbiased tests have orthogonal supports; the
    weighted design average equals d/(d+1) Pi."""
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst_tr = 0.0
    for _ in range(20):
        theta = rng.uniform(0.05, np.pi / 4)
        s = two_qubit_state(theta)
        proj = target_projector(s)
        bar0 = dense.operator(standard_test(s)) - proj
        bar1 = dense.operator(test_projector(s, random_unbiased_basis(2, rng))) - proj
        worst_tr = max(worst_tr, abs(complex(np.trace(bar0 @ bar1))))
    worst_avg = 0.0
    for d in (2, 3, 5):
        s = make_schmidt_state(np.arange(d, 0, -1.0))
        worst_avg = max(worst_avg, dense.design_miss(s, bases._basis_set(bases._design(d))))
    for d in (3, 6):
        s = make_schmidt_state(np.linspace(2.0, 1.0, d))
        design = bases._design(d, min_design_size(d))  # Roy-Scott also at d = 3
        worst_avg = max(worst_avg, dense.design_miss(s, bases._basis_set(design)))
    elapsed = time.perf_counter() - start
    _report(
        "orthogonal supports and design-average identity",
        worst_tr <= 1e-10 and worst_avg <= 1e-10 and elapsed < 30.0,
        f"max |tr| {worst_tr:.2e}, max residual {worst_avg:.2e}, {elapsed:.2f}s",
    )


def test_two_design_verification():
    """Complete MUB sets (d = 2, 3, 5, 7) and the d=6, m=20 phase design pass
    the second-moment identity at 1e-10."""
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 5, 7):
        ok, residual = verify_2design(prime_mub_set(d), tol=1e-10)
        assert ok
        worst = max(worst, residual)
    ok, residual = verify_2design(roy_scott_set(6, 20), tol=1e-10)
    assert ok
    worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    _report(
        "2-design identity for MUB sets and the d=6 design",
        worst <= 1e-10 and elapsed < 30.0,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_homogeneous_spectra():
    """Strategies V and VI have spectrum {1} + {p x (D-1)} for admissible p,
    including the adversarial optima."""
    worst = 0.0
    for s in (D2_STATE, D3_STATE):
        c2 = s.coeffs**2
        lo_v = float(c2[0] / (1 + c2[0]))
        p_opt_v = max(1 / math.e, lo_v)
        for kind, p_values in (
            ("V", (p_opt_v, min(0.99, lo_v + 0.2), 0.9)),
            ("VI", (1 / math.e, 0.5, 0.8)),
        ):
            for p in p_values:
                strat = build_strategy(s, kind, p=p)
                w = np.linalg.eigvalsh(dense.omega(strat))[::-1]
                worst = max(worst, abs(w[0] - 1.0), float(np.abs(w[1:] - p).max()))
    _report(
        "homogeneous spectra of V and VI (d = 2 and 3, three p each)",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )


def test_adversarial_counts():
    """Adversarial count at beta = 1/e and the ~6% overhead at beta = 1/2."""
    expect = 100 * math.e * math.log(100)
    got = tests_needed_adversarial(1 / math.e, 0.01, 0.01)
    rel = abs(got - expect) / expect
    ratio = tests_needed_adversarial(0.5, 0.01, 0.01) / got
    _report(
        "adversarial test counts and overhead ratio",
        rel <= 1e-6 and abs(ratio - 1.0615) <= 1e-3,
        f"rel {rel:.2e}, ratio {ratio:.5f}",
    )


def test_monte_carlo_calibration():
    """Empirical pass rate within 3 sigma of tr(Omega sigma) in >= 47/50 runs."""
    start = time.perf_counter()
    strat = build_strategy(D2_STATE, "II")
    sigma = depolarize(D2_STATE, 0.1)
    hits = 0
    for seed in range(50):
        record = run_verification(strat, sigma, 10**5, seed=seed)
        if abs(record.pass_rate - record.exact_rate) <= 3 * record.std_err:
            hits += 1
    elapsed = time.perf_counter() - start
    _report(
        "Monte Carlo calibration against the exact trace",
        hits >= 47 and elapsed < 60.0,
        f"{hits}/50 within 3 sigma, {elapsed:.1f}s",
    )


def test_worst_case_saturation():
    """tr(Omega sigma*) = 1 - nu*eps for every built-in strategy, and no state
    at the same fidelity does better."""
    worst = 0.0
    strategies = [
        build_strategy(s, kind)
        for s in (D2_STATE, D3_STATE)
        for kind in ("I", "II", "III", "IV", "V", "VI")
    ]
    for strat in strategies:
        for eps in (0.3, 0.1, 0.01):
            sigma = worst_case_state(strat, eps)
            worst = max(
                worst, abs(exact_pass_rate(strat, sigma) - (1 - strat.nu * eps))
            )
    rng = np.random.default_rng(31415)
    eps = 0.1
    excess = -1.0
    for strat in strategies:
        bound = 1 - strat.nu * eps
        for _ in range(1000):
            sigma = random_state_at_fidelity(strat.state, 1 - eps, rng)
            excess = max(excess, exact_pass_rate(strat, sigma) - bound)
    _report(
        "worst-case pass probability saturated and never exceeded",
        worst <= 1e-10 and excess <= 1e-10,
        f"max saturation error {worst:.2e}, max excess {excess:.2e}",
    )


def test_fidelity_estimation():
    """Fidelity estimates hit the true value within 3 error bars in >= 47/50
    seeded runs."""
    start = time.perf_counter()
    s = two_qubit_state(np.pi / 4)
    p = float(s.coeffs[0] ** 2 / (1 + s.coeffs[0] ** 2))
    strat = build_strategy(s, "V", p=p)
    sigma = depolarize(s, 0.2)
    hits = 0
    for seed in range(50):
        out = estimate_fidelity(strat, sigma, 10**5, seed=seed)
        if abs(out.f_hat - 0.85) <= 3 * out.std_err:
            hits += 1
    elapsed = time.perf_counter() - start
    _report(
        "fidelity estimation with the one-way homogeneous strategy",
        hits >= 47 and elapsed < 120.0,
        f"{hits}/50 within 3 sigma, {elapsed:.1f}s",
    )
