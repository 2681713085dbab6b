"""Tests for test operators, the six strategies, and their spectral data."""

import numpy as np
import pytest

from biverify import (
    Direction,
    assemble_strategy,
    beta_nu,
    build_strategy,
    closed_form_beta,
    fourier_basis,
    is_homogeneous,
    make_schmidt_state,
    one_way_diagonal_test,
    optimal_p,
    pi_operator,
    prime_mub_set,
    random_unbiased_basis,
    roy_scott_set,
    standard_basis,
    standard_test,
    state_vector,
    target_projector,
    test_projector,
    two_qubit_state,
    two_way_diagonal_test,
)
from biverify import strategies
from biverify.bases import WeightedBasisSet
from biverify.errors import (
    DesignMismatchError,
    OutOfRangeError,
    SeparableStateError,
)


def design_residual(state, basis_set, direction=Direction.A_TO_B):
    """max-norm of sum_{l>=1} w_l P_l - d/(d+1) Pi, with every design test
    built from its basis."""
    tests = [
        (w, test_projector(state, b, direction))
        for b, w in zip(basis_set.bases[1:], basis_set.weights[1:])
    ]
    return strategies._design_residual(state, strategies._mix(state.d, tests), direction)


class TestTestProjector:
    def test_standard_test_matrix(self):
        """Both parties measure the computational basis: pass iff outcomes
        agree within the target support."""
        s = two_qubit_state(np.pi / 5)
        t = standard_test(s)
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = 1.0
        assert np.allclose(t.matrix, expect, atol=1e-14)

    def test_standard_test_skips_zero_coefficients(self):
        s = make_schmidt_state([1.0, 1.0, 0.0])
        t = standard_test(s)
        assert list(t.supported) == [True, True, False]
        assert t.matrix[8, 8] == 0.0

    def test_conditional_ket_for_fourier_outcome(self):
        """For u_0 = (|0> + |1>)/sqrt(2) the conditional ket is
        cos(theta)|0> + sin(theta)|1>, already normalized."""
        theta = 0.9 * np.pi / 4
        s = two_qubit_state(theta)
        t = test_projector(s, fourier_basis(2))
        assert np.allclose(
            t.conditional_kets[:, 0], [np.cos(theta), np.sin(theta)], atol=1e-14
        )

    def test_projector_property_and_target_pass(self):
        rng = np.random.default_rng(17)
        s = make_schmidt_state([2.0, 1.0, 1.0])
        psi = state_vector(s)
        for _ in range(5):
            b = random_unbiased_basis(3, rng)
            for direction in (Direction.A_TO_B, Direction.B_TO_A):
                t = test_projector(s, b, direction)
                assert np.abs(t.matrix @ t.matrix - t.matrix).max() <= 1e-9
                assert abs((psi.conj() @ t.matrix @ psi).real - 1.0) <= 1e-10

    def test_mirrored_test_is_the_swap(self):
        s = make_schmidt_state([3.0, 2.0, 1.0])
        b = fourier_basis(3)
        fwd = test_projector(s, b, Direction.A_TO_B).matrix
        bwd = test_projector(s, b, Direction.B_TO_A).matrix
        swapped = fwd.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9)
        assert np.abs(bwd - swapped).max() <= 1e-12

    def test_orthogonal_recentred_supports(self):
        """tr(P0 P1) = 1 for any basis unbiased with the standard one, so the
        recentred projectors have orthogonal supports."""
        rng = np.random.default_rng(99)
        for _ in range(20):
            theta = rng.uniform(0.05, np.pi / 4)
            s = two_qubit_state(theta)
            p0 = standard_test(s).matrix
            p1 = test_projector(s, random_unbiased_basis(2, rng)).matrix
            assert abs(np.trace(p0 @ p1).real - 1.0) <= 1e-10
            proj = target_projector(s)
            bar0, bar1 = p0 - proj, p1 - proj
            assert abs(np.trace(bar0 @ bar1)) <= 1e-10


class TestPiOperator:
    def test_closed_form_two_qubits(self):
        theta = np.pi / 6
        s = two_qubit_state(theta)
        expect = target_projector(s) + np.diag(
            [0.0, np.sin(theta) ** 2, np.cos(theta) ** 2, 0.0]
        )
        assert np.abs(pi_operator(s) - expect).max() <= 1e-14

    def test_eigenvalues_two_qubits(self):
        w = np.linalg.eigvalsh(pi_operator(two_qubit_state(np.pi / 6)))[::-1]
        assert np.allclose(w, [1.0, 0.75, 0.25, 0.0], atol=1e-12)

    def test_maximally_entangled_form(self):
        s = two_qubit_state(np.pi / 4)
        expect = target_projector(s) + np.diag([0.0, 0.5, 0.5, 0.0])
        assert np.abs(pi_operator(s) - expect).max() <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_mub_average(self, d):
        raw = np.arange(d, 0, -1).astype(float)
        s = make_schmidt_state(raw)
        assert design_residual(s, prime_mub_set(d)) <= 1e-10

    @pytest.mark.parametrize("d", [3, 6])
    def test_matches_phase_design_average(self, d):
        raw = np.linspace(2.0, 1.0, d)
        s = make_schmidt_state(raw)
        assert design_residual(s, roy_scott_set(d)) <= 1e-10

    def test_mismatching_set_raises(self, monkeypatch):
        """The build's design identity is kind II's only certificate: a
        lop-sided set in place of the complete MUB set fails it."""
        lop_sided = WeightedBasisSet(
            bases=(standard_basis(2), fourier_basis(2)),
            weights=np.array([1 / 3, 2 / 3]),
        )
        monkeypatch.setattr(strategies, "prime_mub_set", lambda d: lop_sided)
        with pytest.raises(DesignMismatchError, match="design average"):
            build_strategy(two_qubit_state(np.pi / 6), "II")


class TestPiTwoWay:
    """The direction average of pi_operator: off-diagonal |jk> entries are
    (c_j^2 + c_k^2)/2."""

    @staticmethod
    def _two_way(s):
        return 0.5 * pi_operator(s) + 0.5 * pi_operator(s, direction=Direction.B_TO_A)

    def test_d3_entry(self):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        assert self._two_way(s)[1, 1].real == pytest.approx(5 / 12, abs=1e-14)

    def test_equals_direction_average(self):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        c2 = s.coeffs**2
        pair_mean = 0.5 * np.add.outer(c2, c2)
        np.fill_diagonal(pair_mean, 0.0)
        expect = target_projector(s) + np.diag(pair_mean.ravel())
        assert np.abs(self._two_way(s) - expect).max() <= 1e-14


class TestBuildStrategy:
    @pytest.mark.parametrize("theta", [np.pi / 12, np.pi / 6, np.pi / 4])
    def test_two_qubit_gaps(self, theta):
        s = two_qubit_state(theta)
        assert build_strategy(s, "I").nu == pytest.approx(0.5, abs=1e-10)
        nu_design = 1.0 / (1.0 + np.cos(theta) ** 2)
        assert build_strategy(s, "II").nu == pytest.approx(nu_design, abs=1e-10)
        assert build_strategy(s, "III").nu == pytest.approx(nu_design, abs=1e-10)
        assert build_strategy(s, "IV").nu == pytest.approx(2 / 3, abs=1e-10)

    def test_same_operator_from_mub_and_phase_design(self):
        """For equal p the MUB-based and design-based mixtures realize the
        same verification operator."""
        s = make_schmidt_state([2.0, 1.0, 1.0])
        p = 0.37
        om_ii = build_strategy(s, "II", p=p).omega
        om_iii = build_strategy(s, "III", p=p).omega
        assert np.abs(om_ii - om_iii).max() <= 1e-10

    def test_embedding_for_nonprime_dimension(self):
        s = make_schmidt_state([2.0, 1.0, 1.0, 1.0])
        strat = build_strategy(s, "II")
        assert strat.state.d == 5
        assert strat.state.coeffs[4] == 0.0
        assert strat.nu == pytest.approx(1 / (1 + s.coeffs[0] ** 2), abs=1e-10)

    def test_nonprime_design_needs_no_embedding(self):
        s = make_schmidt_state([2.0, 1.0, 1.0, 1.0])
        for kind in ("III", "IV", "V", "VI"):
            strat = build_strategy(s, kind)
            assert strat.state.d == 4

    def test_separable_rejected(self):
        s = make_schmidt_state([1.0, 0.0])
        for kind in ("I", "II", "III", "IV", "V", "VI"):
            with pytest.raises(SeparableStateError):
                build_strategy(s, kind)

    def test_two_way_test_probabilities(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "IV")
        probs = [q for q, _ in strat.tests]
        assert abs(sum(probs) - 1.0) <= 1e-12
        directions = {t.direction for _, t in strat.tests[1:]}
        assert directions == {Direction.A_TO_B, Direction.B_TO_A}

    def test_unknown_kind(self):
        with pytest.raises(OutOfRangeError):
            build_strategy(two_qubit_state(np.pi / 6), "VII")

    @pytest.mark.parametrize("kind", ["I", "II", "III", "IV", "V", "VI"])
    def test_design_size_rejected_for_two_qubits(self, kind):
        """d = 2 always uses the complete MUB set, so m must not be ignored."""
        with pytest.raises(OutOfRangeError):
            build_strategy(two_qubit_state(np.pi / 6), kind, m=99)

    @pytest.mark.parametrize("kind", ["I", "II", "III", "IV", "V", "VI"])
    def test_every_test_operator_is_a_valid_effect(self, kind):
        """Each mixed-in test satisfies 0 <= T <= I and passes the target."""
        s = make_schmidt_state([2.0, 1.0, 1.0])
        strat = build_strategy(s, kind)
        psi = state_vector(strat.state)
        for _, t in strat.tests:
            w = np.linalg.eigvalsh(t.matrix)
            assert w[0] >= -1e-9 and w[-1] <= 1.0 + 1e-9
            assert abs((psi.conj() @ t.matrix @ psi).real - 1.0) <= 1e-10

    def test_custom_unbiased_basis_for_kind_i(self):
        rng = np.random.default_rng(1)
        s = two_qubit_state(np.pi / 5)
        b = random_unbiased_basis(2, rng)
        assert build_strategy(s, "I", basis_1=b).nu == pytest.approx(0.5, abs=1e-10)

    def test_biased_basis_rejected_for_kind_i(self):
        s = two_qubit_state(np.pi / 5)
        with pytest.raises(DesignMismatchError):
            build_strategy(s, "I", basis_1=standard_basis(2))


class TestHomogeneousStrategies:
    @pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
    def test_one_way_spectrum_two_qubits(self, p):
        s = two_qubit_state(np.pi / 4)
        strat = build_strategy(s, "V", p=p)
        w = np.linalg.eigvalsh(strat.omega)[::-1]
        assert abs(w[0] - 1.0) <= 1e-10
        assert np.abs(w[1:] - p).max() <= 1e-10
        assert is_homogeneous(strat)

    def test_one_way_default_p(self):
        s = two_qubit_state(np.pi / 4)
        assert build_strategy(s, "V").p == pytest.approx(1 / np.e, abs=1e-15)
        s_skew = two_qubit_state(np.pi / 12)
        lo = s_skew.coeffs[0] ** 2 / (1 + s_skew.coeffs[0] ** 2)
        assert lo > 1 / np.e  # p floor binds for strongly skewed targets
        assert build_strategy(s_skew, "V").p == pytest.approx(lo, abs=1e-15)

    def test_two_way_beta_at_inverse_e(self):
        for raw in ([1.0, 1.0], [2.0, 1.0, 1.0]):
            strat = build_strategy(make_schmidt_state(raw), "VI")
            assert strat.beta == pytest.approx(1 / np.e, abs=1e-10)
            assert is_homogeneous(strat)

    def test_acceptance_bounds_enforced(self):
        s = two_qubit_state(np.pi / 6)  # lower bound (3/4)/(7/4) = 3/7
        with pytest.raises(OutOfRangeError):
            build_strategy(s, "V", p=0.35)
        with pytest.raises(OutOfRangeError):
            build_strategy(s, "VI", p=0.2)
        with pytest.raises(OutOfRangeError):
            build_strategy(s, "V", p=1.0)

    def test_diagonal_test_tables(self):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        p = 0.6
        q = one_way_diagonal_test(s, p)
        c2 = s.coeffs**2
        assert np.allclose(np.diag(q.acceptance), 1.0, atol=1e-15)
        assert q.acceptance[1, 0] == pytest.approx(1 - (1 / p - 1) * c2[0], abs=1e-14)
        qt = two_way_diagonal_test(s, p)
        assert qt.acceptance[1, 0] == pytest.approx(
            1 - 0.5 * (1 / p - 1) * (c2[1] + c2[0]), abs=1e-14
        )
        assert np.abs(qt.acceptance - qt.acceptance.T).max() <= 1e-15

    def test_design_strategies_not_homogeneous(self):
        s = two_qubit_state(np.pi / 6)
        assert not is_homogeneous(build_strategy(s, "II"))
        assert not is_homogeneous(build_strategy(s, "I"))


class TestBetaNu:
    def test_kind_i_off_optimum(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "I", p=0.7)
        beta, nu = beta_nu(strat)
        assert beta == pytest.approx(0.7, abs=1e-10)
        assert nu == pytest.approx(0.3, abs=1e-10)

    def test_kind_ii_optimum(self):
        strat = build_strategy(two_qubit_state(np.pi / 6), "II")
        beta, _ = beta_nu(strat)
        assert beta == pytest.approx(3 / 7, abs=1e-10)

    def test_kind_v_homogeneous_beta(self):
        strat = build_strategy(two_qubit_state(np.pi / 4), "V", p=1 / np.e)
        beta, nu = beta_nu(strat)
        assert beta == pytest.approx(1 / np.e, abs=1e-12)
        assert nu == pytest.approx(1 - 1 / np.e, abs=1e-12)

    @pytest.mark.parametrize("kind", ["I", "II", "III", "IV"])
    def test_default_p_is_optimal_on_a_grid(self, kind):
        """Perturbing p around the default never lowers beta."""
        s = make_schmidt_state([2.0, 1.0, 1.0])
        base = build_strategy(s, kind)
        p0 = optimal_p(base.state, kind)
        for dp in (-0.01, 0.01):
            p = p0 + dp
            if not 0.0 < p < 1.0:
                continue
            assert build_strategy(s, kind, p=p).beta >= base.beta - 1e-12

    def test_closed_form_values(self):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        c2 = s.coeffs**2
        assert closed_form_beta(s, "I", 0.7) == pytest.approx(0.7)
        assert closed_form_beta(s, "II", 0.1) == pytest.approx(0.9 * c2[0])
        assert closed_form_beta(s, "IV", 0.1) == pytest.approx(
            0.9 * (c2[0] + c2[1]) / 2
        )
        assert closed_form_beta(s, "VI", 0.4) == pytest.approx(0.4)


class TestCustomStrategies:
    def test_two_way_mixture_never_worse(self):
        """The direction-averaged strategy has beta at most the mean of the
        one-way betas."""
        rng = np.random.default_rng(123)
        s = make_schmidt_state([2.0, 1.0, 1.0])
        for _ in range(5):
            nb = 3
            bases = [random_unbiased_basis(3, rng) for _ in range(nb)]
            probs = rng.dirichlet(np.ones(nb))
            fwd = [
                (probs[i], test_projector(s, bases[i], Direction.A_TO_B))
                for i in range(nb)
            ]
            bwd = [
                (probs[i], test_projector(s, bases[i], Direction.B_TO_A))
                for i in range(nb)
            ]
            both = [(q / 2, t) for q, t in fwd] + [(q / 2, t) for q, t in bwd]
            beta_fwd = assemble_strategy(s, fwd).beta
            beta_bwd = assemble_strategy(s, bwd).beta
            beta_two = assemble_strategy(s, both).beta
            assert beta_two <= 0.5 * beta_fwd + 0.5 * beta_bwd + 1e-10

    def test_probabilities_must_sum_to_one(self):
        s = two_qubit_state(np.pi / 6)
        with pytest.raises(OutOfRangeError):
            assemble_strategy(s, [(0.6, standard_test(s))])
