"""Tests for the sample-complexity and fidelity-estimation formulas."""

import math
from fractions import Fraction

import numpy as np
import pytest

from biverify import (
    VerificationBudget,
    build_strategy,
    exact_pass_rate,
    fidelity_from_pass_rate,
    figure1_grid,
    figure1_table,
    plm_nu,
    tests_needed,
    tests_needed_adversarial,
    two_qubit_state,
    worst_case_pass_prob,
    worst_case_state,
)
from biverify import analysis
from biverify.errors import OutOfRangeError, _real_arg


class TestTestsNeeded:
    @pytest.mark.parametrize(
        "nu, expect",
        [(0.5, 919), (2 / 3, 689), (1.0, 459), (0.4, 1149)],
    )
    def test_frozen_counts(self, nu, expect):
        assert tests_needed(nu, 0.01, 0.01) == expect

    def test_monotone_in_each_argument(self):
        grid = [0.1, 0.3, 0.5, 0.8, 1.0]
        for eps in (0.005, 0.02):
            counts = [tests_needed(nu, eps, 0.01) for nu in grid]
            assert counts == sorted(counts, reverse=True)
        for nu in (0.3, 0.9):
            counts = [tests_needed(nu, eps, 0.01) for eps in (0.001, 0.01, 0.1)]
            assert counts == sorted(counts, reverse=True)
            counts = [tests_needed(nu, 0.01, dl) for dl in (0.001, 0.01, 0.1)]
            assert counts == sorted(counts, reverse=True)

    def test_asymptotic_regime(self):
        """N * nu * eps / ln(1/delta) -> 1 for small eps and delta."""
        eps = delta = 1e-4
        for nu in (0.25, 0.5, 1.0):
            n = tests_needed(nu, eps, delta)
            ratio = n * nu * eps / math.log(1 / delta)
            assert abs(ratio - 1.0) <= 0.01

    @pytest.mark.parametrize("bad", [(0.0, 0.01, 0.01), (0.5, 0.0, 0.01), (0.5, 0.01, 1.0)])
    def test_range_errors(self, bad):
        with pytest.raises(OutOfRangeError):
            tests_needed(*bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tests_needed(0.5, 1e-16, 0.01),
        lambda: tests_needed(1e-300, 1e-30, 0.01),
        lambda: tests_needed_adversarial(0.3679, 1e-320, 0.1),
        lambda: tests_needed_adversarial(0.5, 0.01, 1e-320),
        lambda: tests_needed_adversarial(1e-320, 0.1, 0.1),
        lambda: tests_needed_adversarial(1e-300, 1e-300, 0.5),
    ],
    ids=[
        "iid-one-minus-nu-eps-rounds-to-1",
        "iid-nu-eps-underflows",
        "adversarial-overflows",
        "adversarial-delta-overflows",
        "adversarial-underflows-to-0",
        "adversarial-denominator-underflows-to-0",
    ],
)
def test_count_without_finite_positive_value_rejected(call):
    """Inputs inside the open intervals whose count rounds to no finite
    positive number raise instead of dividing by zero or returning inf or 0."""
    with pytest.raises(OutOfRangeError, match="rounds to 1|not finite and positive"):
        call()


class TestVerificationBudget:
    def test_plan_from_gap(self):
        budget = VerificationBudget.plan(2 / 3, 0.01, 0.01)
        assert budget.n_tests == 689
        assert budget.epsilon == 0.01 and budget.delta == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0, "delta": 0.01, "n_tests": 10},
            {"epsilon": 0.01, "delta": 1.0, "n_tests": 10},
            {"epsilon": 0.01, "delta": 0.01, "n_tests": 0},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(OutOfRangeError):
            VerificationBudget(**kwargs)

    def test_stores_the_checked_floats(self):
        budget = VerificationBudget(Fraction(1, 100), np.float32(0.5), np.int64(10))
        assert (budget.epsilon, budget.delta, budget.n_tests) == (0.01, 0.5, 10)
        assert type(budget.epsilon) is type(budget.delta) is float


class TestAdversarialCounts:
    def test_minimum_at_inverse_e(self):
        expect = 100 * math.e * math.log(100)
        got = tests_needed_adversarial(1 / math.e, 0.01, 0.01)
        assert abs(got - expect) / expect <= 1e-12

    def test_half_beta_value(self):
        got = tests_needed_adversarial(0.5, 0.01, 0.01)
        assert got == pytest.approx(math.log(100) / (0.005 * math.log(2)), rel=1e-12)

    def test_six_percent_overhead(self):
        ratio = tests_needed_adversarial(0.5, 0.01, 0.01) / tests_needed_adversarial(
            1 / math.e, 0.01, 0.01
        )
        assert ratio == pytest.approx(1.0615, abs=1e-3)

    def test_grid_minimum_near_inverse_e(self):
        betas = np.arange(0.05, 0.999, 1e-4)
        values = [tests_needed_adversarial(b, 0.01, 0.01) for b in betas]
        best = betas[int(np.argmin(values))]
        assert abs(best - 1 / math.e) <= 1e-4

    def test_beta_zero_excluded(self):
        with pytest.raises(OutOfRangeError):
            tests_needed_adversarial(0.0, 0.01, 0.01)


class TestPlmGap:
    def test_symmetric_point(self):
        assert plm_nu(math.pi / 4) == pytest.approx(0.4, abs=1e-14)

    def test_small_angle_limit(self):
        assert plm_nu(1e-9) == pytest.approx(0.5, abs=1e-8)

    def test_always_below_one_half(self):
        for theta in np.linspace(0.01, math.pi / 4, 50):
            assert plm_nu(theta) < 0.5

    def test_range(self):
        with pytest.raises(OutOfRangeError):
            plm_nu(0.0)
        with pytest.raises(OutOfRangeError):
            plm_nu(math.pi / 3)


class TestWorstCasePassProb:
    def test_values(self):
        assert worst_case_pass_prob(0.5, 0.01) == pytest.approx(0.995, abs=1e-15)
        assert worst_case_pass_prob(0.8, 0.0) == 1.0

    @pytest.mark.parametrize("kind", ["I", "II", "IV", "V", "VI"])
    def test_matches_worst_case_state(self, kind):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, kind)
        for eps in (0.3, 0.1, 0.01):
            sigma = worst_case_state(strat, eps)
            assert abs(
                exact_pass_rate(strat, sigma) - worst_case_pass_prob(strat.nu, eps)
            ) <= 1e-10


class TestFidelityFromPassRate:
    def test_direct_values(self):
        assert fidelity_from_pass_rate(0.9, 1 / 3).fidelity == pytest.approx(
            0.85, abs=1e-14
        )
        assert fidelity_from_pass_rate(1.0, 0.4).fidelity == 1.0
        assert fidelity_from_pass_rate(0.4, 0.4).fidelity == 0.0

    def test_round_trip_identity(self):
        for beta in np.linspace(0.0, 0.9, 10):
            for fid in np.linspace(0.0, 1.0, 11):
                rate = (1 - beta) * fid + beta
                back = fidelity_from_pass_rate(rate, beta).fidelity
                assert abs(back - fid) <= 1e-14

    def test_unphysical_rate_flagged_not_clamped(self):
        out = fidelity_from_pass_rate(0.2, 0.4)
        assert not out.physical
        assert out.fidelity == pytest.approx((0.2 - 0.4) / 0.6, abs=1e-14)

    def test_beta_one_rejected(self):
        with pytest.raises(OutOfRangeError):
            fidelity_from_pass_rate(0.9, 1.0)


class TestFigure1Table:
    def test_symmetric_point_row(self):
        row = figure1_table([math.pi / 4], 0.01, 0.01)[0]
        assert (row.n_plm, row.n_i, row.n_ii, row.n_iv) == (1149, 919, 689, 689)

    def test_ordering_across_grid(self):
        rows = figure1_table(figure1_grid(100), 0.01, 0.01)
        for row in rows:
            assert row.n_plm > row.n_i >= row.n_ii >= row.n_iv

    def test_design_column_monotone(self):
        rows = figure1_table(figure1_grid(50), 0.01, 0.01)
        n_ii = [row.n_ii for row in rows]
        assert n_ii == sorted(n_ii, reverse=True)

    def test_two_way_homogeneous_column_constant(self):
        rows = figure1_table(figure1_grid(25), 0.01, 0.01)
        expect = 100 * math.e * math.log(100)
        for row in rows:
            assert row.n_vi == pytest.approx(expect, rel=1e-12)

    def test_adversarial_column_floors_at_inverse_e(self):
        rows = figure1_table([0.05, math.pi / 4], 0.01, 0.01)
        c2 = math.cos(0.05) ** 2
        assert rows[0].n_v == pytest.approx(
            tests_needed_adversarial(c2 / (1 + c2), 0.01, 0.01), rel=1e-12
        )
        assert rows[1].n_v == pytest.approx(
            tests_needed_adversarial(1 / math.e, 0.01, 0.01), rel=1e-12
        )

    def test_rows_match_the_built_strategies(self):
        """Figure 1's gaps are the built two-qubit strategies' gaps: the i.i.d.
        counts equal exactly and the adversarial ones to rounding."""
        grid = figure1_grid(400) + [0.05, 1e-3]
        for theta, row in zip(grid, figure1_table(grid, 0.01, 0.01)):
            built = {
                kind: build_strategy(two_qubit_state(theta), kind)
                for kind in ("I", "II", "IV", "V", "VI")
            }
            counts = [tests_needed(built[k].nu, 0.01, 0.01) for k in ("I", "II", "IV")]
            assert [row.n_i, row.n_ii, row.n_iv] == counts, theta
            for n, kind in ((row.n_v, "V"), (row.n_vi, "VI")):
                expect = tests_needed_adversarial(built[kind].beta, 0.01, 0.01)
                assert n == pytest.approx(expect, rel=1e-12, abs=0.0), (theta, kind)

    def test_single_point_grid(self):
        assert figure1_grid(1) == [math.pi / 4]

    def test_out_of_range_theta(self):
        with pytest.raises(OutOfRangeError):
            figure1_table([1.0], 0.01, 0.01)

    def test_theta_that_is_no_number_refused(self):
        with pytest.raises(OutOfRangeError, match="theta must be a real number, got 'x'"):
            figure1_table([0.5, "x"], 0.01, 0.01)

    def test_epsilon_and_delta_checked_once_per_table(self, monkeypatch):
        """Each theta is checked, but epsilon and delta once for the table,
        not once per count."""
        names = []

        def recorded(name, *args, **kwargs):
            names.append(name)
            return _real_arg(name, *args, **kwargs)

        monkeypatch.setattr(analysis, "_real_arg", recorded)
        rows = figure1_table(figure1_grid(50), 0.01, 0.01)
        assert len(rows) == 50
        assert names.count("epsilon") == names.count("delta") == 1
        assert set(names) == {"epsilon", "delta", "theta"}

    def test_empty_grid_still_checks_epsilon_and_delta(self):
        with pytest.raises(OutOfRangeError, match="epsilon"):
            figure1_table([], 1.5, 0.01)

    def test_grid_size_bounded(self):
        with pytest.raises(OutOfRangeError, match="grid size must be <= 1000000"):
            figure1_grid(10**6 + 1)
