"""Tests for Schmidt states, density operators, noise, and fidelity."""

import warnings

import numpy as np
import pytest

from biverify import (
    SchmidtState,
    build_strategy,
    density_operator,
    depolarize,
    embed_density,
    embed_state,
    exact_pass_rate,
    fidelity,
    make_schmidt_state,
    random_state_at_fidelity,
    reduced_state_b,
    state_vector,
    target_projector,
    two_qubit_state,
    worst_case_state,
)
from biverify.errors import (
    DimensionMismatchError,
    NegativeCoefficientError,
    OutOfRangeError,
    ZeroVectorError,
)


class TestMakeSchmidtState:
    def test_symmetric_normalization(self):
        s = make_schmidt_state([1.0, 1.0], 2)
        assert np.allclose(s.coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_sorting(self):
        s = make_schmidt_state([np.sin(np.pi / 6), np.cos(np.pi / 6)], 2)
        assert np.allclose(s.coeffs, [np.sqrt(3) / 2, 0.5], atol=1e-15)

    def test_three_level_normalization(self):
        s = make_schmidt_state([2.0, 1.0, 1.0], 3)
        assert np.allclose(s.coeffs, np.array([2.0, 1.0, 1.0]) / np.sqrt(6), atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            make_schmidt_state([0.0, 0.0], 2)

    def test_negative_rejected(self):
        with pytest.raises(NegativeCoefficientError):
            make_schmidt_state([1.0, -0.5], 2)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            make_schmidt_state([1.0, 1.0], 3)

    def test_exact_zeros_preserved(self):
        s = make_schmidt_state([1.0, 1.0, 0.0], 3)
        assert s.coeffs[2] == 0.0

    def test_entanglement_flag(self):
        assert make_schmidt_state([1.0, 1.0], 2).is_entangled
        assert not make_schmidt_state([1.0, 0.0], 2).is_entangled
        # c_1^2 below the smallest normal double: no test supports outcome 1
        assert not make_schmidt_state([1.0, 1e-160]).is_entangled

    @pytest.mark.parametrize("c1", [1e-8, 1e-12, 1e-150])
    def test_near_product_is_entangled(self, c1):
        """Schmidt rank 2 even where c_0 rounds to 1."""
        state = make_schmidt_state([1.0, c1, 0.0])
        assert state.coeffs[0] == 1.0
        assert state.is_entangled


    @pytest.mark.parametrize("k", [-1070, -1000, -600, 600, 1000, 1021])
    def test_power_of_two_scale_keeps_bits(self, k):
        """Amplitudes scaled by 2**k give the same coefficients bit for bit,
        also where their square sum under- or overflows a double."""
        raw = np.array([3.0, 2.0, 1.0, 0.0])
        expected = make_schmidt_state(raw).coeffs
        assert np.array_equal(make_schmidt_state(np.ldexp(raw, k)).coeffs, expected)

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ([3e-170, 2e-170, 1e-170], np.array([3.0, 2.0, 1.0]) / np.sqrt(14.0)),
            ([1e154, 1e154], np.full(2, np.sqrt(0.5))),
            ([1e-160, 1e-170], [1.0, 1e-10]),
            ([5e-324, 5e-324], np.full(2, np.sqrt(0.5))),
        ],
        ids=["underflow", "overflow", "underflow-spread", "subnormal"],
    )
    def test_extreme_amplitudes_normalize(self, raw, expected):
        s = make_schmidt_state(raw)
        assert np.allclose(s.coeffs, expected, rtol=1e-15, atol=0.0)

    def test_ordinary_amplitudes_keep_their_bits(self):
        """The power-of-two scaling is exact, so ordinary amplitudes are
        normalized exactly as by their own norm."""
        rng = np.random.default_rng(21)
        for raw in [rng.random(d) * 10.0 ** rng.integers(-5, 5) for d in range(2, 20)]:
            expected = np.sort(raw)[::-1] / np.linalg.norm(raw)
            assert np.array_equal(make_schmidt_state(raw).coeffs, expected)

    @pytest.mark.parametrize(
        "raw", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_rejected(self, raw):
        with pytest.raises(OutOfRangeError, match="finite"):
            make_schmidt_state(raw)

    def test_non_finite_coefficients_rejected(self):
        """Every comparison with NaN is false, so NaN would pass the sign,
        order and norm checks."""
        with pytest.raises(OutOfRangeError, match="finite"):
            SchmidtState(d=2, coeffs=np.array([np.nan, np.nan]))

    def test_huge_coefficients_refused_without_overflow(self):
        """An entry above 1 is refused before squaring, so a huge one raises
        the norm error without an overflow warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OutOfRangeError, match="unit square sum"):
                SchmidtState(d=2, coeffs=np.array([1e200, 1e200]))

    @pytest.mark.parametrize(
        "raw", [np.array([1 + 1j, 0.5]), [1 + 1j, 0.5], [1.0, 0.5 - 1e-300j]],
        ids=["array", "list", "tiny-imaginary"],
    )
    def test_complex_amplitudes_refused(self, raw):
        """A nonzero imaginary part is refused, not dropped by the cast."""
        with pytest.raises(OutOfRangeError, match="must be real"):
            make_schmidt_state(raw)

    def test_complex_coefficients_refused(self):
        with pytest.raises(OutOfRangeError, match="must be real"):
            SchmidtState(d=2, coeffs=np.array([0.8 + 0.1j, 0.6]))

    def test_caller_array_is_copied_not_frozen(self):
        """The state freezes its own copy of the coefficients, so the caller's
        array stays writeable and a later write to it does not reach the state."""
        c = np.array([0.8, 0.6])
        state = SchmidtState(d=2, coeffs=c)
        assert c.flags.writeable and not state.coeffs.flags.writeable
        c[0] = 0.0
        assert state.coeffs[0] == 0.8

    def test_complex_dtype_with_zero_imaginary_part_accepted(self):
        state = make_schmidt_state(np.array([1.0 + 0j, 0.5 + 0j]))
        assert state.coeffs.dtype == float
        assert np.array_equal(state.coeffs, make_schmidt_state([1.0, 0.5]).coeffs)
        assert np.array_equal(SchmidtState(d=2, coeffs=state.coeffs + 0j).coeffs, state.coeffs)

    def test_entry_just_above_one_accepted(self):
        """The cap on an entry admits every vector the norm check admits."""
        c = np.array([np.sqrt(1.0 + 5e-13), 0.0])
        assert c[0] > 1.0
        assert SchmidtState(d=2, coeffs=c).coeffs[0] == c[0]


class TestStateVector:
    def test_maximally_entangled(self):
        v = state_vector(make_schmidt_state([1.0, 1.0], 2))
        assert np.allclose(v, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15)

    def test_two_qubit_angle(self):
        theta = np.pi / 5
        v = state_vector(two_qubit_state(theta))
        assert np.allclose(v, [np.cos(theta), 0, 0, np.sin(theta)], atol=1e-14)

    def test_product_state_vector_still_defined(self):
        v = state_vector(make_schmidt_state([1.0, 0.0, 0.0], 3))
        expected = np.zeros(9)
        expected[0] = 1.0
        assert np.allclose(v, expected, atol=1e-15)

    @pytest.mark.parametrize("raw", [[1, 1], [3, 2, 1], [1, 1, 1, 1, 0.2]])
    def test_unit_norm(self, raw):
        v = state_vector(make_schmidt_state(raw))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


class TestReducedState:
    @pytest.mark.parametrize(
        "raw, diag",
        [
            ([1.0, 1.0], [0.5, 0.5]),
            ([np.sqrt(3) / 2, 0.5], [0.75, 0.25]),
            ([2.0, 1.0, 1.0], [2 / 3, 1 / 6, 1 / 6]),
        ],
    )
    def test_squares_of_coefficients(self, raw, diag):
        rho = reduced_state_b(make_schmidt_state(raw))
        assert np.allclose(rho.matrix, np.diag(diag), atol=1e-14)


class TestFidelity:
    def test_target_itself(self):
        s = two_qubit_state(np.pi / 6)
        rho = density_operator(target_projector(s))
        assert fidelity(rho, s) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        s = two_qubit_state(np.pi / 6)
        rho = density_operator(np.eye(4) / 4)
        assert fidelity(rho, s) == pytest.approx(0.25, abs=1e-14)

    def test_depolarized_by_linearity(self):
        s = two_qubit_state(np.pi / 3.5)
        assert fidelity(depolarize(s, 0.1), s) == pytest.approx(0.925, abs=1e-14)

    def test_dimension_mismatch(self):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            fidelity(density_operator(np.eye(4) / 4), s)


class TestDepolarize:
    def test_endpoints(self):
        s = two_qubit_state(np.pi / 7)
        assert np.allclose(depolarize(s, 0.0).matrix, target_projector(s), atol=1e-15)
        assert np.allclose(depolarize(s, 1.0).matrix, np.eye(4) / 4, atol=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0])
    def test_fidelity_formula(self, lam):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        expect = (1 - lam) + lam / 9
        assert abs(fidelity(depolarize(s, lam), s) - expect) <= 1e-12

    @pytest.mark.parametrize("lam", [-0.01, 1.01])
    def test_range(self, lam):
        with pytest.raises(OutOfRangeError):
            depolarize(two_qubit_state(np.pi / 6), lam)


class TestEmbedding:
    def test_padding(self):
        s = make_schmidt_state([3, 2, 2, 1, 1, 1])
        s7 = embed_state(s, 7)
        assert s7.d == 7
        assert s7.coeffs[6] == 0.0
        assert np.allclose(s7.coeffs[:6], s.coeffs, atol=1e-15)

    def test_identity_embedding(self):
        s = two_qubit_state(np.pi / 6)
        s2 = embed_state(s, 2)
        assert np.allclose(s2.coeffs, s.coeffs, atol=1e-15)

    def test_shrink_rejected(self):
        with pytest.raises(OutOfRangeError):
            embed_state(make_schmidt_state([2.0, 1.0, 1.0]), 2)

    def test_fidelity_preserved_under_embedding(self):
        """Zero padding leaves inner products with embedded operators alone."""
        s = two_qubit_state(np.pi / 6)
        rho = depolarize(s, 0.3)
        s5 = embed_state(s, 5)
        rho5 = embed_density(rho, 5)
        assert abs(fidelity(rho5, s5) - fidelity(rho, s)) <= 1e-12

    def test_embedded_density_dimensions(self):
        rho = depolarize(two_qubit_state(np.pi / 4), 0.5)
        rho3 = embed_density(rho, 3)
        assert rho3.dim == 9
        assert abs(np.trace(rho3.matrix) - 1.0) <= 1e-12


class TestDensityOperatorValidation:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, value):
        m = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        m[1, 1] = value
        with pytest.raises(OutOfRangeError, match="finite"):
            density_operator(m)

    def test_rejects_non_square_matrix_by_shape(self):
        """A 3x4 matrix is named by its shape, not reported as non-Hermitian."""
        with pytest.raises(DimensionMismatchError, match=r"\(3, 4\)"):
            density_operator(np.ones((3, 4)) / 3)

    def test_rejects_nonunit_trace(self):
        with pytest.raises(OutOfRangeError):
            density_operator(np.eye(4))

    def test_rejects_negative_operator(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(OutOfRangeError):
            density_operator(m)

    def test_eigenvalue_just_below_the_psd_tolerance_refused(self):
        """The eigensolve that factors a dense input still refuses an
        eigenvalue below -PSD_ATOL, with the same message; one above it is
        accepted and held as the input's positive part."""
        message = r"smallest eigenvalue -2.000e-10 is below -1e-10"
        with pytest.raises(OutOfRangeError, match=message):
            density_operator(np.diag([1.0 + 2e-10, -2e-10, 0.0, 0.0]))
        rho = density_operator(np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]))
        assert np.abs(rho.matrix - np.diag([1.0 + 5e-11, 0.0, 0.0, 0.0])).max() <= 1e-15


class TestFactoredStates:
    """The states the package builds are held as a diagonal plus kets; the
    matrix formed from them on first read is the dense formula."""

    S = make_schmidt_state([3.0, 2.0, 1.0, 0.5])

    @staticmethod
    def _outer(v):
        return np.outer(v, v.conj())

    def test_depolarize(self):
        psi = state_vector(self.S)
        want = 0.7 * self._outer(psi) + 0.3 * np.eye(16) / 16
        assert np.abs(depolarize(self.S, 0.3).matrix - want).max() <= 1e-15

    @pytest.mark.parametrize("kind", ["I", "II", "V"])
    def test_worst_case_state(self, kind):
        strategy = build_strategy(self.S, kind)
        psi, chi = state_vector(strategy.state), strategy.beta_vector
        want = 0.9 * self._outer(psi) + 0.1 * self._outer(chi)
        assert np.abs(worst_case_state(strategy, 0.1).matrix - want).max() <= 1e-15

    def test_random_state_at_fidelity(self):
        psi = state_vector(self.S)
        rng = np.random.default_rng(5)
        chi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        chi -= psi * (psi.conj() @ chi)
        chi /= np.linalg.norm(chi)
        want = 0.8 * self._outer(psi) + 0.2 * self._outer(chi)
        sigma = random_state_at_fidelity(self.S, 0.8, np.random.default_rng(5))
        assert np.abs(sigma.matrix - want).max() <= 1e-15

    def test_embed_density(self):
        rho = depolarize(self.S, 0.3)
        idx = (np.arange(4)[:, None] * 6 + np.arange(4)).ravel()
        want = np.zeros((36, 36), dtype=complex)
        want[np.ix_(idx, idx)] = rho.matrix
        assert np.abs(embed_density(rho, 6).matrix - want).max() <= 1e-15

    def test_reduced_state_b(self):
        want = np.diag(self.S.coeffs**2)
        assert np.abs(reduced_state_b(self.S).matrix - want).max() <= 1e-15

    def test_matrix_formed_once_and_frozen(self):
        rho = depolarize(self.S, 0.3)
        assert rho.matrix is rho.matrix
        assert not rho.matrix.flags.writeable
        with pytest.raises(AttributeError):
            rho.dim = 9

    def test_dense_input_keeps_its_rank(self):
        """A dense input is factored by eigh; eigenvalues at rounding level
        are dropped, so the target projector is held as one ket."""
        rho = density_operator(target_projector(self.S))
        assert rho._kets.shape == (16, 1)
        assert np.abs(rho.matrix - target_projector(self.S)).max() <= 1e-15
        rng = np.random.default_rng(8)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m = g @ g.conj().T
        m /= np.trace(m).real
        assert np.abs(density_operator(m).matrix - m).max() <= 1e-15


class TestWorstCaseState:
    @pytest.mark.parametrize(
        "kind, theta, eps, expect",
        [
            ("I", np.pi / 4, 0.01, 0.995),
            ("II", np.pi / 6, 0.01, 1 - 0.01 * 4 / 7),
        ],
    )
    def test_saturates_pass_probability(self, kind, theta, eps, expect):
        s = two_qubit_state(theta)
        strategy = build_strategy(s, kind)
        sigma = worst_case_state(strategy, eps)
        assert abs(exact_pass_rate(strategy, sigma) - expect) <= 1e-10
        assert abs(fidelity(sigma, s) - (1 - eps)) <= 1e-12

    def test_zero_infidelity_returns_target(self):
        s = two_qubit_state(np.pi / 6)
        strategy = build_strategy(s, "IV")
        sigma = worst_case_state(strategy, 0.0)
        assert np.allclose(sigma.matrix, target_projector(s), atol=1e-14)
        assert exact_pass_rate(strategy, sigma) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["I", "II", "III", "IV", "V", "VI"])
    @pytest.mark.parametrize("eps", [0.3, 0.1, 0.01])
    def test_bound_attained_for_all_builtins(self, kind, eps):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        strategy = build_strategy(s, kind)
        sigma = worst_case_state(strategy, eps)
        expect = 1.0 - strategy.nu * eps
        assert abs(exact_pass_rate(strategy, sigma) - expect) <= 1e-10

    def test_random_states_never_beat_the_bound(self):
        """Any state at fidelity 1 - eps passes at most 1 - nu*eps on average."""
        rng = np.random.default_rng(20240817)
        s = two_qubit_state(np.pi / 6)
        eps = 0.1
        for kind in ("I", "II", "IV", "V"):
            strategy = build_strategy(s, kind)
            bound = 1.0 - strategy.nu * eps
            for _ in range(1000):
                sigma = random_state_at_fidelity(s, 1.0 - eps, rng)
                assert exact_pass_rate(strategy, sigma) <= bound + 1e-10
