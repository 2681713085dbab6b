"""Tests for the Monte Carlo simulator and fidelity estimation."""

import math

import numpy as np
import pytest

from biverify import (
    Direction,
    RandomizedDiagonalTest,
    build_strategy,
    density_operator,
    depolarize,
    estimate_fidelity,
    exact_pass_rate,
    fidelity,
    make_schmidt_state,
    random_state_at_fidelity,
    run_verification,
    target_projector,
    trial_rng,
    two_qubit_state,
    worst_case_state,
)
from biverify.errors import (
    DimensionMismatchError,
    NotHomogeneousError,
    OutOfRangeError,
)
from biverify.simulate import (
    TRIALS_PER_STREAM,
    _cells,
    _count_passes,
    alias_table,
    compile_tables,
)

KINDS = ("I", "II", "III", "IV", "V", "VI")


def _random_density(dim, rng):
    """A random full-rank state; almost surely not swap-symmetric."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return density_operator(rho / np.trace(rho).real)


class TestRngStreams:
    def test_same_seed_same_stream_bitwise(self):
        a = trial_rng(42, 3).random(100)
        b = trial_rng(42, 3).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = trial_rng(42, 0).random(100)
        b = trial_rng(42, 1).random(100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, np.bool_(True), "3", -1])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(OutOfRangeError):
            trial_rng(seed)

    @pytest.mark.parametrize("stream", [0.5, False, -2])
    def test_bad_stream_rejected(self, stream):
        with pytest.raises(OutOfRangeError):
            trial_rng(0, stream)

    def test_numpy_integers_accepted(self):
        a = trial_rng(np.int64(42), np.uint8(3)).random(10)
        assert np.array_equal(a, trial_rng(42, 3).random(10))


class TestRunSingleTest:
    """Single-trial runs: ``run_verification(strategy, sigma, 1, seed)``."""

    def test_target_always_passes(self):
        for kind in KINDS:
            s = two_qubit_state(np.pi / 6)
            strat = build_strategy(s, kind)
            sigma = density_operator(target_projector(s))
            for seed in range(200):
                assert run_verification(strat, sigma, 1, seed).n_pass == 1, (kind, seed)

    def test_dimension_mismatch(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "I")
        sigma = density_operator(np.eye(9) / 9)
        with pytest.raises(DimensionMismatchError):
            run_verification(strat, sigma, 1, seed=0)


class TestRunVerification:
    def test_deterministic_for_equal_seeds(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "II")
        sigma = depolarize(s, 0.1)
        a = run_verification(strat, sigma, 20000, seed=42)
        b = run_verification(strat, sigma, 20000, seed=42)
        assert a == b
        c = run_verification(strat, sigma, 20000, seed=43)
        assert c.n_pass != a.n_pass or c.pass_rate != a.pass_rate

    def test_target_state_passes_every_trial(self):
        targets = (two_qubit_state(np.pi / 5), make_schmidt_state([3.0, 2.0, 1.0, 0.0]))
        for s in targets:
            for kind in KINDS:
                strat = build_strategy(s, kind)
                sigma = density_operator(target_projector(strat.state))
                record = run_verification(strat, sigma, 5000, seed=1)
                assert record.n_pass == 5000, (s.d, kind)
                assert record.pass_rate == 1.0
                assert record.std_err == 0.0

    def test_exact_rate_for_maximally_mixed(self):
        """tr(Omega)/4 = (1 + 3p)/4 for the one-way homogeneous strategy."""
        s = two_qubit_state(np.pi / 4)
        strat = build_strategy(s, "V", p=0.5)
        record = run_verification(strat, density_operator(np.eye(4) / 4), 1000, seed=0)
        assert record.exact_rate == pytest.approx(0.625, abs=1e-12)

    def test_worst_case_calibration(self):
        s = two_qubit_state(np.pi / 4)
        strat = build_strategy(s, "I")
        sigma = worst_case_state(s, strat, 0.1)
        record = run_verification(strat, sigma, 10**5, seed=11)
        assert record.exact_rate == pytest.approx(0.95, abs=1e-12)
        assert abs(record.pass_rate - record.exact_rate) <= 3 * record.std_err

    def test_homogeneous_rate_is_affine_in_fidelity(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "VI")
        lam = 0.4 / 3  # depolarizing weight with fidelity exactly 0.9
        sigma = depolarize(s, lam)
        assert fidelity(sigma, s) == pytest.approx(0.9, abs=1e-12)
        record = run_verification(strat, sigma, 1000, seed=5)
        expect = (1 - 1 / np.e) * 0.9 + 1 / np.e
        assert record.exact_rate == pytest.approx(expect, abs=1e-12)

    def test_sampler_targets_the_analyzed_operator(self):
        """The mixture the sampler draws from must reproduce omega exactly."""
        for kind in ("I", "II", "III", "IV", "V", "VI"):
            s = make_schmidt_state([2.0, 1.0, 1.0])
            strat = build_strategy(s, kind)
            mixed = sum(q * t.matrix for q, t in strat.tests)
            assert np.abs(mixed - strat.omega).max() <= 1e-12

    def test_conditional_acceptance_is_one_on_target(self):
        for kind in ("I", "II", "III", "IV", "V", "VI"):
            s = make_schmidt_state([2.0, 1.0, 1.0])
            strat = build_strategy(s, kind)
            sigma = density_operator(target_projector(strat.state))
            _, tables = compile_tables(strat, sigma)
            for probs, accept in tables:
                live = probs > 1e-9
                assert np.abs(accept[live] - 1.0).max() <= 1e-12

    def test_zero_probability_outcomes_never_sampled(self):
        """A source confined to one Schmidt branch never triggers the other
        standard-test outcomes."""
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "I")
        branch = np.zeros((4, 4), dtype=complex)
        branch[0, 0] = 1.0  # |00><00|
        sigma = density_operator(branch)
        record = run_verification(strat, sigma, 4000, seed=3)
        assert record.exact_rate == pytest.approx(
            exact_pass_rate(strat, sigma), abs=1e-12
        )
        assert abs(record.pass_rate - record.exact_rate) <= 4 * record.std_err + 1e-3

    def test_two_way_calibration_on_asymmetric_state(self):
        """The mirrored-direction sampling path must also track the exact
        trace, probed with a source that is not swap-symmetric."""
        rng = np.random.default_rng(77)
        s = make_schmidt_state([2.0, 1.0, 1.0])
        sigma = random_state_at_fidelity(s, 0.9, rng)
        swapped = sigma.matrix.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9)
        assert np.abs(sigma.matrix - swapped).max() > 1e-3
        for kind in ("IV", "VI"):
            strat = build_strategy(s, kind)
            record = run_verification(strat, sigma, 10**5, seed=13)
            assert abs(record.pass_rate - record.exact_rate) <= 4 * record.std_err

    def test_unbiased_over_many_records(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "II")
        sigma = depolarize(s, 0.1)
        n, reps = 10**4, 200
        rates = [
            run_verification(strat, sigma, n, seed=seed).pass_rate
            for seed in range(reps)
        ]
        exact = exact_pass_rate(strat, sigma)
        pooled = np.sqrt(exact * (1 - exact) / (n * reps))
        assert abs(np.mean(rates) - exact) <= 4 * pooled

    def test_trial_count_validated(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "I")
        with pytest.raises(OutOfRangeError):
            run_verification(strat, depolarize(s, 0.1), 0, seed=0)

    @pytest.mark.parametrize("n_trials", [1e4, 1000.5, True, "100", None])
    def test_non_integer_trial_count_rejected(self, n_trials):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "I")
        with pytest.raises(OutOfRangeError):
            run_verification(strat, depolarize(s, 0.1), n_trials, seed=0)

    @pytest.mark.parametrize("seed", [1.5, 7.0, True, -1])
    def test_bad_seed_rejected(self, seed):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "I")
        with pytest.raises(OutOfRangeError):
            run_verification(strat, depolarize(s, 0.1), 100, seed=seed)

    def test_numpy_integer_arguments_give_plain_ints(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "I")
        sigma = depolarize(s, 0.1)
        record = run_verification(strat, sigma, np.int64(5000), seed=np.uint32(4))
        assert record == run_verification(strat, sigma, 5000, seed=4)
        assert type(record.n_trials) is int and type(record.seed) is int

    def test_partial_last_block(self):
        """A run of k full blocks plus a remainder tallies the full blocks
        exactly as the k-block run does."""
        s = make_schmidt_state([3.0, 2.0, 1.0])
        strat = build_strategy(s, "VI")
        sigma = _random_density(9, np.random.default_rng(5))
        full = run_verification(strat, sigma, 2 * TRIALS_PER_STREAM, seed=8)
        longer = run_verification(strat, sigma, 2 * TRIALS_PER_STREAM + 7, seed=8)
        assert 0 <= longer.n_pass - full.n_pass <= 7


class TestAliasTable:
    """The distribution rebuilt from (column, prob, alias) must be w / w.sum()."""

    @staticmethod
    def _rebuild(weights):
        column, prob, alias = alias_table(weights)
        assert column.size == prob.size == alias.size
        assert np.all((prob >= 0.0) & (prob <= 1.0))
        dist = np.zeros(len(weights))
        np.add.at(dist, column, prob / column.size)
        np.add.at(dist, alias, (1.0 - prob) / column.size)
        return dist, column, alias

    def test_random_weights(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 17, 500):
            w = rng.random(n)
            dist, _, _ = self._rebuild(w)
            assert np.abs(dist - w / w.sum()).max() <= 1e-12

    def test_single_cell(self):
        dist, column, alias = self._rebuild([0.3])
        assert dist.tolist() == [1.0]
        assert column.tolist() == [0] and alias.tolist() == [0]

    def test_weights_spanning_twelve_decades(self):
        w = np.logspace(-12, 0, 49)
        np.random.default_rng(2).shuffle(w)
        dist, _, _ = self._rebuild(w)
        assert np.abs(dist - w / w.sum()).max() <= 1e-12
        assert np.all(dist > 0.0)

    def test_zero_weight_cells_never_column_or_alias(self):
        rng = np.random.default_rng(9)
        w = rng.random(40)
        w[rng.permutation(40)[:15]] = 0.0
        dist, column, alias = self._rebuild(w)
        assert np.abs(dist - w / w.sum()).max() <= 1e-12
        assert np.all(w[column] > 0.0)
        assert np.all(w[alias] > 0.0)
        assert column.size == 25

    def test_all_zero_rejected(self):
        with pytest.raises(OutOfRangeError):
            alias_table(np.zeros(4))


class TestBinomialOracle:
    """Each trial is an independent Bernoulli(tr(Omega sigma)) draw, so the
    pass count of a 4096-trial block is Binomial(4096, exact_rate).

    For every kind on a d = 3 and a two-qubit target, with a random source
    that is not swap-symmetric, 200 seeds of one block each are checked two
    ways, both at a 5-sigma bound: the pooled count's z-score, and the
    dispersion sum_i (n_i - n r)^2 / (n r (1 - r)), which is chi-square with
    200 degrees of freedom (r is exact, not fitted): mean 200, sd sqrt(400).
    The two-qubit strategies have the fewest cells, where a slip in the
    layout of an alias column moves the pass rate most.
    """

    SEEDS = 200

    def _check(self, state, kind):
        strat = build_strategy(state, kind)
        sigma = _random_density(strat.state.dim, np.random.default_rng(2024))
        n = TRIALS_PER_STREAM
        records = [run_verification(strat, sigma, n, seed=seed) for seed in range(self.SEEDS)]
        r = exact_pass_rate(strat, sigma)
        assert all(rec.exact_rate == r for rec in records)
        assert 0.05 < r < 0.95
        counts = np.array([rec.n_pass for rec in records], dtype=float)
        var = n * r * (1.0 - r)
        z = (counts.sum() - self.SEEDS * n * r) / math.sqrt(self.SEEDS * var)
        assert abs(z) <= 5.0
        dispersion = float(np.sum((counts - n * r) ** 2) / var)
        assert abs(dispersion - self.SEEDS) <= 5.0 * math.sqrt(2 * self.SEEDS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_counts_are_binomial(self, kind):
        self._check(make_schmidt_state([3.0, 2.0, 1.0]), kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_qubit_block_counts_are_binomial(self, kind):
        self._check(two_qubit_state(np.pi / 5), kind)


def _threshold_cases():
    targets = {
        "d2": two_qubit_state(np.pi / 5),
        "d3": make_schmidt_state([3.0, 2.0, 1.0]),
        "d4-zero-tail": make_schmidt_state([3.0, 2.0, 1.0, 0.0]),
    }
    return [pytest.param(s, kind, id=f"{name}-{kind}") for name, s in targets.items() for kind in KINDS]


class TestPassThresholds:
    """Column k of the alias table passes the uniforms with u K in
    [k, threshold[k]), so threshold[k] - k is that column's pass probability
    and their mean is the strategy's pass rate."""

    @pytest.mark.parametrize("state,kind", _threshold_cases())
    def test_column_pass_fractions_average_to_exact_rate(self, state, kind):
        strat = build_strategy(state, kind)
        sigma = _random_density(strat.state.dim, np.random.default_rng(17))
        threshold = _cells(strat, sigma)
        fraction = threshold - np.arange(threshold.size)
        assert np.all((fraction >= 0.0) & (fraction <= 1.0))
        assert abs(fraction.mean() - exact_pass_rate(strat, sigma)) <= 1e-12

    @pytest.mark.parametrize("state,kind", _threshold_cases())
    def test_target_thresholds_are_column_ends(self, state, kind):
        strat = build_strategy(state, kind)
        sigma = density_operator(target_projector(strat.state))
        threshold = _cells(strat, sigma)
        assert np.array_equal(threshold, np.arange(1, threshold.size + 1))

    def test_largest_uniform_lands_in_last_column(self):
        u = np.nextafter(1.0, 0.0)
        k = np.arange(1, 10**5 + 1)
        assert np.array_equal((u * k).astype(np.intp), k - 1)
        for size in (1, 2, 3, 7, 2400, 10**5):
            ends = np.arange(1.0, size + 1.0)
            assert _count_passes(ends, np.array([u, 0.0])) == 2
            assert _count_passes(ends - 1.0, np.array([u, 0.0])) == 0


def _oracle_tables(test, rho, d):
    """Outcome probabilities tr[(Pi_j x I) sigma] and acceptances
    tr[P_j sigma] / tr[(Pi_j x I) sigma] of one test, outcome by outcome,
    with P_j = Pi_j x |v_j><v_j| the outcome-j term of the test (factors
    swapped for B -> A)."""
    if isinstance(test, RandomizedDiagonalTest):
        return np.diag(rho).real, test.acceptance.ravel()
    eye = np.eye(d)
    probs, accept = np.zeros(d), np.zeros(d)
    for j in range(d):
        u = test.measured_basis.vectors[:, j]
        v = test.conditional_kets[:, j]
        pi_u, pi_v = np.outer(u, u.conj()), np.outer(v, v.conj())
        if test.direction is Direction.A_TO_B:
            marginal, term = np.kron(pi_u, eye), np.kron(pi_u, pi_v)
        else:
            marginal, term = np.kron(eye, pi_u), np.kron(pi_v, pi_u)
        probs[j] = np.trace(marginal @ rho).real
        if test.supported[j]:
            accept[j] = np.trace(term @ rho).real / probs[j]
    return probs, accept


def _table_cases():
    rng = np.random.default_rng(1905)
    targets = {"d2": two_qubit_state(0.4)}
    for d in (3, 4, 5, 8):
        targets[f"d{d}-random"] = make_schmidt_state(rng.random(d) + 0.05)
    targets["d4-zero-tail"] = make_schmidt_state([3.0, 2.0, 1.0, 0.0])
    return [pytest.param(s, kind, id=f"{name}-{kind}") for name, s in targets.items() for kind in KINDS]


class TestCompileTablesOracle:
    """Kinds IV and VI carry B -> A tests, so both directions are covered."""

    @pytest.mark.parametrize("state,kind", _table_cases())
    def test_tables_match_per_test_traces(self, state, kind):
        strat = build_strategy(state, kind)
        d = strat.state.d
        sigma = _random_density(d * d, np.random.default_rng(d))
        pvec, tables = compile_tables(strat, sigma)
        q = np.array([q for q, _ in strat.tests])
        assert np.abs(pvec - q / q.sum()).max() <= 1e-12
        assert len(tables) == len(strat.tests)
        for (_, test), (probs, accept) in zip(strat.tests, tables):
            want_probs, want_accept = _oracle_tables(test, sigma.matrix, d)
            assert np.abs(probs - want_probs).max() <= 1e-12
            assert np.abs(accept - want_accept).max() <= 1e-12


class TestEstimateFidelity:
    def test_depolarized_estimate(self):
        s = two_qubit_state(np.pi / 4)
        p = float(s.coeffs[0] ** 2 / (1 + s.coeffs[0] ** 2))
        strat = build_strategy(s, "V", p=p)
        sigma = depolarize(s, 0.2)
        out = estimate_fidelity(strat, sigma, 10**5, seed=2)
        assert abs(out.f_hat - 0.85) <= 3 * out.std_err
        assert out.std_err == pytest.approx(out.record.std_err / (1 - p), abs=1e-15)

    def test_target_state_estimates_one_exactly(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "VI")
        sigma = density_operator(target_projector(s))
        out = estimate_fidelity(strat, sigma, 1000, seed=9)
        assert out.f_hat == 1.0
        assert out.std_err == 0.0

    def test_smaller_beta_gives_sharper_estimates(self):
        """The error bar scales as 1/(1 - beta) at fixed trial count."""
        s = two_qubit_state(np.pi / 4)
        sigma = depolarize(s, 0.2)
        tight = estimate_fidelity(build_strategy(s, "V", p=1 / 3), sigma, 10**4, seed=4)
        loose = estimate_fidelity(build_strategy(s, "V", p=0.7), sigma, 10**4, seed=4)
        assert tight.std_err < loose.std_err

    def test_requires_homogeneous_strategy(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "II")
        with pytest.raises(NotHomogeneousError):
            estimate_fidelity(strat, depolarize(s, 0.1), 1000, seed=0)

    def test_requires_enough_trials(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "V")
        with pytest.raises(OutOfRangeError):
            estimate_fidelity(strat, depolarize(s, 0.1), 50, seed=0)

    @pytest.mark.parametrize("n_trials,seed", [(1e4, 0), (1000.5, 0), (True, 0), (1000, 1.5), (1000, False)])
    def test_non_integer_arguments_rejected(self, n_trials, seed):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "V")
        with pytest.raises(OutOfRangeError):
            estimate_fidelity(strat, depolarize(s, 0.1), n_trials, seed=seed)
