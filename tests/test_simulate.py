"""Tests for the Monte Carlo simulator and fidelity estimation."""

import math
import tracemalloc

import numpy as np
import pytest

from biverify import (
    Basis,
    ConditionalProjectorTest,
    Direction,
    assemble_strategy,
    build_strategy,
    density_operator,
    depolarize,
    embed_density,
    estimate_fidelity,
    exact_pass_rate,
    fidelity,
    make_schmidt_state,
    min_design_size,
    random_state_at_fidelity,
    random_unbiased_basis,
    run_verification,
    standard_test,
    target_projector,
    test_projector,
    trial_rng,
    two_qubit_state,
    worst_case_state,
)
from biverify import simulate
from biverify.errors import (
    DimensionMismatchError,
    NotHomogeneousError,
    OutOfRangeError,
)
from biverify.simulate import MAX_TRIALS, _draw, compile_tables

import dense_oracle as dense

KINDS = ("I", "II", "III", "IV", "V", "VI")


def _random_density(dim, rng):
    """A random full-rank state; almost surely not swap-symmetric."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return density_operator(rho / np.trace(rho).real)


class TestRngStreams:
    def test_same_seed_same_stream_bitwise(self):
        a = trial_rng(42).random(100)
        b = trial_rng(42).random(100)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = trial_rng(42).random(100)
        b = trial_rng(43).random(100)
        assert not np.array_equal(a, b)

    def test_draws_are_the_seeds_first_spawned_stream(self):
        """A seed's draws are those of SeedSequence(seed, spawn_key=(0,))."""
        expected = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(42, spawn_key=(0,)))
        ).random(100)
        assert np.array_equal(trial_rng(42).random(100), expected)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, np.bool_(True), "3", -1])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(OutOfRangeError):
            trial_rng(seed)

    def test_numpy_integers_accepted(self):
        a = trial_rng(np.int64(42)).random(10)
        assert np.array_equal(a, trial_rng(42).random(10))


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

    def test_target_exact_rate_is_at_most_one(self):
        """tr(Omega |Psi><Psi|) rounds above 1 on these targets (kind II at
        theta = 0.3 gave 1 + 2.2e-16); the rate is a probability."""
        for s in (two_qubit_state(0.3), make_schmidt_state([3.0, 2.0, 1.0, 0.0])):
            for kind in KINDS:
                strat = build_strategy(s, kind)
                rate = exact_pass_rate(strat, density_operator(target_projector(strat.state)))
                assert 1.0 - 1e-12 <= rate <= 1.0, (s.d, kind)

    def test_exact_rate_for_maximally_mixed(self):
        """tr(Omega)/4 = (1 + 3p)/4 for the one-way homogeneous strategy."""
        s = two_qubit_state(np.pi / 4)
        strat = build_strategy(s, "V", p=0.5)
        record = run_verification(strat, density_operator(np.eye(4) / 4), 1000, seed=0)
        assert record.exact_rate == pytest.approx(0.625, abs=1e-12)

    def test_worst_case_calibration(self):
        s = two_qubit_state(np.pi / 4)
        strat = build_strategy(s, "I")
        sigma = worst_case_state(strat, 0.1)
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
            omega = dense.scattered(strat.index, strat.blocks)
            assert np.abs(dense.mixture(strat.tests) - omega).max() <= 1e-12

    def test_pass_probability_is_one_on_target(self):
        for kind in ("I", "II", "III", "IV", "V", "VI"):
            s = make_schmidt_state([2.0, 1.0, 1.0])
            strat = build_strategy(s, kind)
            sigma = density_operator(target_projector(strat.state))
            _, pass_probs = compile_tables(strat, sigma)
            assert np.all(pass_probs == 1.0), kind

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

    def test_trials_above_int64_rejected(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "VI")
        sigma = depolarize(s, 0.1)
        assert MAX_TRIALS == 2**63 - 1
        with pytest.raises(OutOfRangeError):
            run_verification(strat, sigma, MAX_TRIALS + 1, seed=0)
        with pytest.raises(OutOfRangeError):
            estimate_fidelity(strat, sigma, MAX_TRIALS + 1, seed=0)
        assert run_verification(strat, sigma, MAX_TRIALS, seed=0).n_trials == MAX_TRIALS

    def test_quadrillion_trials_calibrated(self):
        """10**15 trials cost no more than a few; the rate lands within 5
        standard errors (about 1e-8) of the exact rate."""
        s = two_qubit_state(np.pi / 5)
        strat = build_strategy(s, "VI")
        record = run_verification(strat, depolarize(s, 0.1), 10**15, seed=12)
        assert record.n_trials == 10**15
        assert 0.0 < record.std_err < 2e-8
        assert abs(record.pass_rate - record.exact_rate) <= 5 * record.std_err


class TestBinomialOracle:
    """Each trial is an independent Bernoulli(tr(Omega sigma)) draw, so the
    pass count of a 4096-trial run is Binomial(4096, exact_rate).

    For every kind on a d = 3 and a two-qubit target, with a random source
    that is not swap-symmetric, 200 seeds of one run each are checked two
    ways, both at a 5-sigma bound: the pooled count's z-score, and the
    dispersion sum_i (n_i - n r)^2 / (n r (1 - r)), which is chi-square with
    200 degrees of freedom (r is exact, not fitted): mean 200, sd sqrt(400).
    The two-qubit strategies have the fewest cells, where a slip in one
    cell's weight or acceptance moves the pass rate most.
    """

    SEEDS = 200

    def _check(self, state, kind):
        strat = build_strategy(state, kind)
        sigma = _random_density(strat.state.dim, np.random.default_rng(2024))
        n = 4096
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


class TestCountSampler:
    """One run draws the per-test counts as Multinomial(n, q) and the passes
    of a test as Binomial(count, pi); the draw goes through each test's
    pass probability."""

    @staticmethod
    def _tally(strat, sigma, n, seed):
        pvec, pass_probs = compile_tables(strat, sigma)
        counts, passes = _draw(pvec, pass_probs, n, trial_rng(seed))
        return pvec, pass_probs, counts, passes

    @pytest.mark.parametrize("kind", KINDS)
    def test_counts_sum_to_n_and_passes_are_the_run(self, kind):
        strat = build_strategy(make_schmidt_state([3.0, 2.0, 1.0]), kind)
        sigma = _random_density(9, np.random.default_rng(3))
        for n, seed in ((1, 0), (4097, 1), (10**9, 2)):
            _, _, counts, passes = self._tally(strat, sigma, n, seed)
            assert counts.shape == passes.shape == (len(strat.tests),)
            assert counts.sum() == n
            assert passes.sum() == run_verification(strat, sigma, n, seed).n_pass

    @pytest.mark.parametrize("kind", KINDS)
    def test_passes_never_exceed_counts(self, kind):
        strat = build_strategy(two_qubit_state(np.pi / 5), kind)
        sigma = _random_density(4, np.random.default_rng(4))
        for seed in range(20):
            _, _, counts, passes = self._tally(strat, sigma, 10**4, seed)
            assert np.all((passes >= 0) & (passes <= counts))

    @pytest.mark.parametrize("kind", KINDS)
    def test_unsupported_outcomes_fail_and_the_target_passes(self, kind):
        """On a zero-tail target, every test the target runs passes every
        trial; a noisy source that reaches the outcome the target does not
        support fails the standard test of I-IV there, and every test some
        trials."""
        strat = build_strategy(make_schmidt_state([3.0, 2.0, 1.0, 0.0]), kind)
        target = density_operator(target_projector(strat.state))
        _, _, counts, passes = self._tally(strat, target, 10**6, 7)
        assert np.array_equal(passes, counts)
        noisy = _random_density(strat.state.dim, np.random.default_rng(6))
        _, pass_probs, counts, passes = self._tally(strat, noisy, 10**6, 7)
        assert np.all(pass_probs < 1.0) and np.all(counts > 0) and np.all(passes < counts)

    def test_zero_weight_last_test_gets_no_trials(self):
        """numpy's multinomial hands the rounding remainder of the weights to
        its last category.  Here that is a zero-weight test that never
        passes, after kind III's tests on its target: drawn from, it would
        take about a thousand of 2**63 - 1 trials and fail them."""
        s = make_schmidt_state([3.0, 2.0, 1.0, 0.0])
        strat = build_strategy(s, "III")
        pvec, pass_probs = compile_tables(strat, density_operator(target_projector(s)))
        pvec, pass_probs = np.append(pvec, 0.0), np.append(pass_probs, 0.0)
        assert trial_rng(0).multinomial(MAX_TRIALS, pvec)[-1] > 0
        for seed in range(3):
            counts, passes = _draw(pvec, pass_probs, MAX_TRIALS, trial_rng(seed))
            assert counts[-1] == 0 and passes.sum() == MAX_TRIALS

    def test_counts_match_weights_chi_square(self):
        """Pearson chi-square of the per-test counts of a d = 3 kind VI run
        against n q, over its A -> B and B -> A tests, within 5 sigma of its
        mean on either side; and the passes of each test against count * pi."""
        strat = build_strategy(make_schmidt_state([3.0, 2.0, 1.0]), "VI")
        assert {t.direction for _, t in strat.tests[1:]} == set(Direction)
        sigma = _random_density(9, np.random.default_rng(8))
        n = 10**7
        pvec, pass_probs, counts, passes = self._tally(strat, sigma, n, 9)
        dof = len(pvec) - 1
        chi2 = float(np.sum((counts - n * pvec) ** 2 / (n * pvec)))
        assert abs(chi2 - dof) <= 5.0 * math.sqrt(2 * dof)
        assert np.all((pass_probs > 0.0) & (pass_probs < 1.0))
        c, a = counts, pass_probs
        dispersion = float(np.sum((passes - c * a) ** 2 / (c * a * (1.0 - a))))
        assert abs(dispersion - len(c)) <= 5.0 * math.sqrt(2 * len(c))

    def test_draws_go_through_the_pass_probabilities(self, monkeypatch):
        """With every pass probability zeroed, no trial passes, while
        exact_rate, read from Omega, is unchanged: the pass count is not a
        single Binomial(n, exact_rate) draw."""
        s = two_qubit_state(np.pi / 5)
        sigma = depolarize(s, 0.2)
        strats = {kind: build_strategy(s, kind) for kind in KINDS}
        exact = {kind: run_verification(strats[kind], sigma, 10**4, 1).exact_rate for kind in KINDS}
        real = simulate.compile_tables

        def zero_pass(strategy, state):
            pvec, pass_probs = real(strategy, state)
            return pvec, np.zeros_like(pass_probs)

        monkeypatch.setattr(simulate, "compile_tables", zero_pass)
        for kind in KINDS:
            record = run_verification(strats[kind], sigma, 10**4, 1)
            assert record.n_pass == 0, kind
            assert record.exact_rate == exact[kind] > 0.5

    def test_weights_normalized_by_the_sampler(self, monkeypatch):
        """Scaling the mixture by a power of two leaves every run as it was,
        bit for bit: the sampler normalizes the test weights itself."""
        strat = build_strategy(make_schmidt_state([3.0, 2.0, 1.0]), "VI")
        sigma = _random_density(9, np.random.default_rng(10))
        before = [run_verification(strat, sigma, 10**5, seed) for seed in range(5)]
        real = simulate.compile_tables
        for scale in (0.25, 4.0):

            def scaled(strategy, state, scale=scale):
                pvec, pass_probs = real(strategy, state)
                return scale * pvec, pass_probs

            monkeypatch.setattr(simulate, "compile_tables", scaled)
            after = [run_verification(strat, sigma, 10**5, seed) for seed in range(5)]
            assert after == before, scale


def _threshold_cases():
    targets = {
        "d2": two_qubit_state(np.pi / 5),
        "d3": make_schmidt_state([3.0, 2.0, 1.0]),
        "d4-zero-tail": make_schmidt_state([3.0, 2.0, 1.0, 0.0]),
    }
    return [pytest.param(s, kind, id=f"{name}-{kind}") for name, s in targets.items() for kind in KINDS]


class TestPassThresholds:
    """Each trial of test l passes with probability pi_l, the success
    probability of that test's binomial draw, so the mixture averages these
    pass thresholds to the strategy's pass rate."""

    @pytest.mark.parametrize("state,kind", _threshold_cases())
    def test_pass_probabilities_average_to_exact_rate(self, state, kind):
        strat = build_strategy(state, kind)
        sigma = _random_density(strat.state.dim, np.random.default_rng(17))
        pvec, pass_probs = compile_tables(strat, sigma)
        assert pvec.shape == pass_probs.shape == (len(strat.tests),)
        assert np.all(pvec > 0.0) and abs(pvec.sum() - 1.0) <= 1e-12
        assert np.all((pass_probs >= 0.0) & (pass_probs <= 1.0))
        assert abs(pvec @ pass_probs - exact_pass_rate(strat, sigma)) <= 1e-12

    @pytest.mark.parametrize("state,kind", _threshold_cases())
    def test_target_thresholds_are_one(self, state, kind):
        """On the target every test passes for sure, with no rounding."""
        strat = build_strategy(state, kind)
        sigma = density_operator(target_projector(strat.state))
        _, pass_probs = compile_tables(strat, sigma)
        assert np.all(pass_probs == 1.0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [7, 9, 16])
    def test_target_passes_for_sure_in_either_form(self, d, kind):
        """The target given densely is factored on its nonzero rows, and
        given as factors it is its one ket: either way its fail mass is a
        sum of squares of exact zeros and O(eps) residuals, so every test
        reads exactly 1."""
        rng = np.random.default_rng(d)
        state = make_schmidt_state(np.concatenate((rng.uniform(0.05, 1.0, d - 1), [0.0])))
        strat = build_strategy(state, kind)
        dense_target = density_operator(target_projector(strat.state))
        for sigma in (dense_target, depolarize(strat.state, 0.0)):
            _, pass_probs = compile_tables(strat, sigma)
            assert np.all(pass_probs == 1.0)


def _table_cases():
    rng = np.random.default_rng(1905)
    targets = {"d2": two_qubit_state(0.4)}
    for d in (3, 4, 5, 8):
        targets[f"d{d}-random"] = make_schmidt_state(rng.random(d) + 0.05)
    targets["d4-zero-tail"] = make_schmidt_state([3.0, 2.0, 1.0, 0.0])
    return [pytest.param(s, kind, id=f"{name}-{kind}") for name, s in targets.items() for kind in KINDS]


def _check_against_oracle(strat, sigma, checked, context=()):
    """Every checked test's pass probability matches the dense oracle to
    1e-12, and the mixture matches the strategy's weights."""
    pvec, pass_probs = compile_tables(strat, sigma)
    q = np.array([q for q, _ in strat.tests])
    assert np.abs(pvec - q / q.sum()).max() <= 1e-12
    assert len(pass_probs) == len(strat.tests)
    for i in checked:
        want = dense.pass_probability(strat.tests[i][1], sigma.matrix)
        assert abs(pass_probs[i] - want) <= 1e-12, (*context, i)


class TestCompileTablesOracle:
    """Kinds IV and VI carry B -> A tests, so both directions are covered."""

    @pytest.mark.parametrize("state,kind", _table_cases())
    def test_pass_probabilities_match_per_test_traces(self, state, kind):
        strat = build_strategy(state, kind)
        d = strat.state.d
        sigma = _random_density(d * d, np.random.default_rng(d))
        _check_against_oracle(strat, sigma, range(len(strat.tests)))


def _grid_targets():
    """Zero-tail and near-product targets at composite d = 6 and 12 (Roy-Scott
    rows), prime d = 5 and 13 (MUB rows) and d = 4; kind II embeds d = 4, 6
    and 12 into 5, 7 and 13."""
    targets = {}
    for d in (4, 5, 6, 12, 13):
        raw = np.arange(d, 0, -1.0)
        targets[f"d{d}-zero-tail"] = make_schmidt_state(np.concatenate((raw[:-2], [0.0, 0.0])))
        targets[f"d{d}-near-product"] = make_schmidt_state(np.concatenate(([1.0], 1e-6 * raw[1:])))
    return targets


GRID_TARGETS = _grid_targets()


def _grid_sources(state, strat):
    """The depolarized target, the worst-case state, a random rank-2 state at
    fidelity 0.8 and a random full-rank state, the first, third and fourth
    made on the target's own space and embedded into the strategy's."""
    rng = np.random.default_rng(state.d)
    sources = {
        "depolarized": depolarize(state, 0.2),
        "random-rank-2": random_state_at_fidelity(state, 0.8, rng),
        "full-rank": _random_density(state.dim, rng),
    }
    if strat.state.d != state.d:
        sources = {name: embed_density(s, strat.state.d) for name, s in sources.items()}
    return {**sources, "worst-case": worst_case_state(strat, 0.1)}


def _custom_mixture(state):
    """The standard test mixed with one random unbiased basis, measured
    A -> B and B -> A: the custom path of every conditional test."""
    basis = random_unbiased_basis(state.d, np.random.default_rng(state.d))
    return assemble_strategy(state, [
        (0.5, standard_test(state)),
        (0.25, test_projector(state, basis, Direction.A_TO_B)),
        (0.25, test_projector(state, basis, Direction.B_TO_A)),
    ])


class TestCompileTablesOracleGrid:
    """The pass probabilities of every built-in kind and of a custom mixture
    match the dense oracle to 1e-12 on factored and dense sources, embedded
    ones included, and read exactly 1 on the target.  Three tests of a
    built-in strategy are checked against the oracle: the head and the
    first and last tail tests, which cover both directions of IV and VI."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", sorted(GRID_TARGETS))
    def test_pass_probabilities_match_the_dense_oracle(self, name, kind):
        state = GRID_TARGETS[name]
        strat = build_strategy(state, kind)
        checked = sorted({0, 1, len(strat.tests) - 1})
        for source, sigma in _grid_sources(state, strat).items():
            _check_against_oracle(strat, sigma, checked, (source,))
        target = depolarize(strat.state, 0.0)
        assert np.all(compile_tables(strat, target)[1] == 1.0)

    @pytest.mark.parametrize("name", sorted(GRID_TARGETS))
    def test_custom_mixture_matches_the_dense_oracle(self, name):
        state = GRID_TARGETS[name]
        strat = _custom_mixture(state)
        for source, sigma in _grid_sources(state, strat).items():
            _check_against_oracle(strat, sigma, range(3), (source,))
        for target in (depolarize(state, 0.0), density_operator(target_projector(state))):
            assert np.all(compile_tables(strat, target)[1] == 1.0)


def test_run_verification_holds_no_dense_state_and_forms_no_basis(monkeypatch):
    """At d = 24, kind VI, a run on the depolarized target allocates less
    than one d^2 x d^2 complex matrix (5.3 MB) and constructs no Basis and no
    test: the source is its factors and the pass probabilities come from the
    design's row table.  Reading ``tests`` afterwards forms them as before."""
    d = 24
    state = make_schmidt_state(np.arange(d, 0, -1.0))
    strat = build_strategy(state, "VI")
    sigma = depolarize(state, 0.1)
    formed = []
    for cls in (Basis, ConditionalProjectorTest):

        def counted(self, *args, _real=cls.__init__, _cls=cls, **kwargs):
            formed.append(_cls)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    tracemalloc.start()
    try:
        record = run_verification(strat, sigma, 10**5, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert formed == []
    assert peak < (d * d) ** 2 * np.dtype(complex).itemsize
    assert abs(record.pass_rate - record.exact_rate) <= 5 * record.std_err
    fresh = build_strategy(state, "VI").tests
    assert len(strat.tests) == len(fresh) == 1 + 2 * (min_design_size(d) - 1)
    for (q, test), (q_fresh, test_fresh) in zip(strat.tests[1:], fresh[1:]):
        assert q == q_fresh and test.direction is test_fresh.direction
        assert np.array_equal(test.measured_basis.vectors, test_fresh.measured_basis.vectors)


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
