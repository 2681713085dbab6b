"""Tests for test operators, the six strategies, and their spectral data."""

from functools import partial

import numpy as np
import pytest

from biverify import (
    Basis,
    ConditionalProjectorTest,
    Direction,
    RandomizedDiagonalTest,
    assemble_strategy,
    build_strategy,
    closed_form_beta,
    depolarize,
    exact_pass_rate,
    fourier_basis,
    is_homogeneous,
    make_schmidt_state,
    min_design_size,
    one_way_diagonal_test,
    optimal_p,
    random_state_at_fidelity,
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
from biverify import bases, designs, strategies
from biverify.errors import (
    DesignMismatchError,
    DimensionMismatchError,
    OutOfRangeError,
    SeparableStateError,
    TopEigenvalueError,
)

import dense_oracle as dense


def _diagonal_lower_bound(state, kind):
    c2 = state.coeffs**2
    if kind == "V":
        return float(c2[0] / (1.0 + c2[0]))
    return float((c2[0] + c2[1]) / (2.0 + c2[0] + c2[1]))


def _diagonal_verdict(state, kind, p):
    """(refusal message or None, acceptance table) of the kind's diagonal
    test at p: one check, that p lies in (0, 1) and the table in [0, 1] to
    1e-12."""
    lo = _diagonal_lower_bound(state, kind)
    refusal = (
        f"mixing probability p={p} outside [{lo:.12g}, 1): acceptance "
        "probabilities would leave [0, 1]"
    )
    if not 0.0 < p < 1.0:
        return refusal, None
    c2 = state.coeffs**2
    pi = np.tile(c2, (state.d, 1)) if kind == "V" else 0.5 * np.add.outer(c2, c2)
    table = 1.0 - (1.0 / p - 1.0) * pi
    np.fill_diagonal(table, 1.0)
    if table.min() < -1e-12 or table.max() > 1.0 + 1e-12:
        return refusal, None
    return None, np.clip(table, 0.0, 1.0)


class TestTestProjector:
    def test_standard_test_matrix(self):
        """Both parties measure the computational basis: pass iff outcomes
        agree within the target support, so the pair vectors span |00>, |11>."""
        s = two_qubit_state(np.pi / 5)
        t = standard_test(s)
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = 1.0
        assert dense.factor_miss(expect, t.pair_vectors()) <= 1e-14

    def test_standard_test_skips_zero_coefficients(self):
        s = make_schmidt_state([1.0, 1.0, 0.0])
        t = standard_test(s)
        assert list(t.supported) == [True, True, False]
        assert t.pair_vectors().shape == (9, 2) and not t.pair_vectors()[8].any()

    def test_standard_test_supports_tiny_coefficients(self):
        """Support is c_j > 0 down to weights at the edge of normal doubles."""
        s = make_schmidt_state([1.0, 1e-7, 1e-150, 1e-160, 0.0])
        assert list(standard_test(s).supported) == [True, True, True, False, False]

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
                m = dense.operator(t)
                assert np.abs(m @ m - m).max() <= 1e-9
                assert abs((psi.conj() @ m @ psi).real - 1.0) <= 1e-10
                assert dense.factor_miss(m, t.pair_vectors()) <= 1e-9

    def test_target_pass_is_checked_at_the_basis_tolerance(self):
        """A basis at the edge of ORTHO_ATOL is a valid Basis, but the target
        passes its test with probability 1 + 6.9e-10, which is refused, also
        when the test is constructed directly."""
        d = 8
        skew = np.eye(d) + 4.9e-11 * (np.ones((d, d)) - np.eye(d))
        edge = Basis(d=d, vectors=fourier_basis(d).vectors @ skew)
        s = make_schmidt_state([1.0, 1e-3] + [0.0] * (d - 2))
        with pytest.raises(DesignMismatchError, match="target pass probability"):
            test_projector(s, edge)
        with pytest.raises(DesignMismatchError, match="target pass probability"):
            ConditionalProjectorTest(Direction.B_TO_A, edge, s)

    def test_mirrored_test_is_the_swap(self):
        """The B -> A pair vectors are the A -> B ones with the parties'
        indices swapped, so the mirrored test is SWAP P SWAP."""
        s = make_schmidt_state([3.0, 2.0, 1.0])
        b = fourier_basis(3)
        fwd = test_projector(s, b, Direction.A_TO_B).pair_vectors()
        bwd = test_projector(s, b, Direction.B_TO_A).pair_vectors()
        swapped = fwd.reshape(3, 3, -1).transpose(1, 0, 2).reshape(9, -1)
        assert np.abs(bwd - swapped).max() <= 1e-12

    def test_orthogonal_recentred_supports(self):
        """tr(P0 P1) = 1 for any basis unbiased with the standard one, so the
        recentred projectors have orthogonal supports."""
        rng = np.random.default_rng(99)
        for _ in range(20):
            theta = rng.uniform(0.05, np.pi / 4)
            s = two_qubit_state(theta)
            p0 = dense.operator(standard_test(s))
            p1 = dense.operator(test_projector(s, random_unbiased_basis(2, rng)))
            assert abs(np.trace(p0 @ p1).real - 1.0) <= 1e-10
            proj = target_projector(s)
            bar0, bar1 = p0 - proj, p1 - proj
            assert abs(np.trace(bar0 @ bar1)) <= 1e-10


def pi_blocks(s, kind):
    """Omega of a kind-II (one-way) or kind-IV (two-way) strategy at p = 0,
    which is its Pi, formed densely from the strategy's shift-class factors."""
    return dense.omega(build_strategy(s, kind, p=0.0))


class TestPiOperator:
    """The build's Pi (a p = 0 strategy's Omega) and the oracle's, against
    the paper's two-qubit forms and the design averages."""

    def test_closed_form_two_qubits(self):
        theta = np.pi / 6
        s = two_qubit_state(theta)
        expect = target_projector(s) + np.diag(
            [0.0, np.sin(theta) ** 2, np.cos(theta) ** 2, 0.0]
        )
        assert np.abs(dense.pi(s) - expect).max() <= 1e-14
        assert np.abs(pi_blocks(s, "II") - expect).max() <= 1e-14

    def test_eigenvalues_two_qubits(self):
        w = np.linalg.eigvalsh(pi_blocks(two_qubit_state(np.pi / 6), "II"))[::-1]
        assert np.allclose(w, [1.0, 0.75, 0.25, 0.0], atol=1e-12)

    def test_maximally_entangled_form(self):
        s = two_qubit_state(np.pi / 4)
        expect = target_projector(s) + np.diag([0.0, 0.5, 0.5, 0.0])
        assert np.abs(dense.pi(s) - expect).max() <= 1e-14
        assert np.abs(pi_blocks(s, "II") - expect).max() <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_mub_average(self, d):
        raw = np.arange(d, 0, -1).astype(float)
        s = make_schmidt_state(raw)
        assert dense.design_miss(s, bases._basis_set(designs._design(d))) <= 1e-10

    @pytest.mark.parametrize("d", [3, 6])
    def test_matches_phase_design_average(self, d):
        raw = np.linspace(2.0, 1.0, d)
        s = make_schmidt_state(raw)
        design = designs._design(d, min_design_size(d))
        assert dense.design_miss(s, bases._basis_set(design)) <= 1e-10

    def test_mismatching_set_raises(self, monkeypatch):
        """The design's 2-design residual is kind II's only certificate: a
        lop-sided set in place of the complete MUB set fails it."""
        lop_sided = designs._Design("standard and Fourier, lop-sided", (0, 1), 4, range(1))
        monkeypatch.setattr(designs, "_design", lambda d, m=None: lop_sided)
        with pytest.raises(DesignMismatchError, match="2-design identity"):
            build_strategy(two_qubit_state(np.pi / 6), "II")


class TestPiTwoWay:
    """The direction average of Pi, kind IV's Omega at p = 0: off-diagonal
    |jk> entries are (c_j^2 + c_k^2)/2."""

    def test_d3_entry(self):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        assert pi_blocks(s, "IV")[1, 1].real == pytest.approx(5 / 12, abs=1e-14)

    def test_equals_direction_average(self):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        c2 = s.coeffs**2
        pair_mean = 0.5 * np.add.outer(c2, c2)
        np.fill_diagonal(pair_mean, 0.0)
        expect = target_projector(s) + np.diag(pair_mean.ravel())
        two_way = 0.5 * dense.pi(s) + 0.5 * dense.pi(s, Direction.B_TO_A)
        assert np.abs(two_way - expect).max() <= 1e-14
        assert np.abs(pi_blocks(s, "IV") - expect).max() <= 1e-14


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
        ii, iii = build_strategy(s, "II", p=p), build_strategy(s, "III", p=p)
        assert np.array_equal(ii.index, iii.index)
        assert np.abs(dense.omega(ii) - dense.omega(iii)).max() <= 1e-10

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
        """A target whose c_1^2 is not a normal double is a product state to
        the tests, which support no outcome 1: every kind refuses it."""
        for raw in ([1.0, 0.0], [1.0, 1e-160]):
            s = make_schmidt_state(raw)
            for kind in ("I", "II", "III", "IV", "V", "VI"):
                with pytest.raises(SeparableStateError):
                    build_strategy(s, kind)

    @pytest.mark.parametrize("c1", [1e-7, 1e-8, 1e-12, 1e-150])
    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_near_product_target_builds(self, d, c1):
        """A Schmidt-rank-2 target is entangled even where c_0 rounds to 1:
        every kind builds, with beta at its closed form, and every test keeps
        the tiny coefficients supported, so Omega fixes the target."""
        tail = [c1 / 2] * (d - 3) + [0.0] if d > 2 else []  # with a zero tail
        s = make_schmidt_state([1.0, c1] + tail)
        assert s.d == d
        for kind in ("I", "II", "III", "IV", "V", "VI"):
            strat = build_strategy(s, kind)
            expected = closed_form_beta(strat.state, kind, strat.p)
            assert abs(strat.beta - expected) <= 1e-10
            psi = state_vector(strat.state)
            omega = dense.omega(strat)
            assert np.abs(omega @ psi - psi).max() <= 1e-12

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
        """Each mixed-in test satisfies 0 <= T <= I and passes the target,
        and a conditional test's pair vectors realize it."""
        s = make_schmidt_state([2.0, 1.0, 1.0])
        strat = build_strategy(s, kind)
        psi = state_vector(strat.state)
        for _, t in strat.tests:
            m = dense.operator(t)
            w = np.linalg.eigvalsh(m)
            assert w[0] >= -1e-9 and w[-1] <= 1.0 + 1e-9
            assert abs((psi.conj() @ m @ psi).real - 1.0) <= 1e-10
            if isinstance(t, ConditionalProjectorTest):
                assert dense.factor_miss(m, t.pair_vectors()) <= 1e-9

    def test_custom_unbiased_basis_for_kind_i(self):
        """Kind I with another basis unbiased to the standard one is the
        two-test custom mixture, with the same gap."""
        rng = np.random.default_rng(1)
        s = two_qubit_state(np.pi / 5)
        b = random_unbiased_basis(2, rng)
        tests = [(0.5, standard_test(s)), (0.5, test_projector(s, b))]
        assert assemble_strategy(s, tests).nu == pytest.approx(0.5, abs=1e-10)

    def test_biased_basis_rejected_for_kind_i(self):
        """The standard test mixed with itself leaves |00> and |11> both at
        eigenvalue 1, so the target is no longer the top eigenvector."""
        s = two_qubit_state(np.pi / 5)
        tests = [(0.5, standard_test(s)), (0.5, test_projector(s, standard_basis(2)))]
        with pytest.raises(TopEigenvalueError):
            assemble_strategy(s, tests)


class TestHomogeneousStrategies:
    @pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
    def test_one_way_spectrum_two_qubits(self, p):
        s = two_qubit_state(np.pi / 4)
        strat = build_strategy(s, "V", p=p)
        w = np.linalg.eigvalsh(dense.omega(strat))[::-1]
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

    @pytest.mark.parametrize("kind", ["V", "VI"])
    def test_p_near_the_lower_bound(self, kind):
        """Near the lower bound, the diagonal test and the build accept and
        refuse exactly as the one check below, with its message and table:
        some p just under the bound pass it and others do not."""
        make = one_way_diagonal_test if kind == "V" else two_way_diagonal_test
        outcomes, below = set(), set()
        for raw in ([2.0, 1.0], [3.0, 2.0, 1.0, 0.0], [1.0, 1.0, 0.5, 0.1, 0.01]):
            state = make_schmidt_state(raw)
            lo = _diagonal_lower_bound(state, kind)
            ps = [lo + k * 1e-13 for k in range(-9, 10)] + [lo - 2e-12, 0.0, 1.0, -0.1]
            for p in ps:
                expected, table = _diagonal_verdict(state, kind, p)
                outcomes.add(expected and expected.split()[0])
                if 0.0 < p < lo:
                    below.add(expected is None)
                for build in (make, lambda s, p: build_strategy(s, kind, p)):
                    try:
                        built = build(state, p)
                    except OutOfRangeError as exc:
                        assert str(exc) == expected, p
                        continue
                    assert expected is None, p
                    if build is make:
                        assert np.array_equal(built.acceptance, table)
        assert outcomes == {None, "mixing"}
        assert below == {True, False}  # the check binds just under the bound

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

    @pytest.mark.parametrize("kind", ["I", "II", "III", "IV", "V", "VI"])
    def test_homogeneity_matches_dense_model(self, kind):
        """is_homogeneous decides at the max-norm distance from the dense
        model |Psi><Psi| + beta (I - |Psi><Psi|)."""
        strat = build_strategy(make_schmidt_state([3.0, 2.0, 1.0, 0.0]), kind)
        proj = target_projector(strat.state)
        model = proj + strat.beta * (np.eye(strat.state.dim) - proj)
        distance = np.abs(dense.omega(strat) - model).max()
        if kind in ("V", "VI"):
            assert distance <= 1e-14 and is_homogeneous(strat)
        else:
            assert is_homogeneous(strat, tol=distance * (1 + 1e-9))
            assert not is_homogeneous(strat, tol=distance * (1 - 1e-9))

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_invalid_tolerance_rejected(self, tol):
        strat = build_strategy(two_qubit_state(np.pi / 6), "VI")
        with pytest.raises(OutOfRangeError, match="tolerance"):
            is_homogeneous(strat, tol=tol)


class TestBetaNu:
    def test_kind_i_off_optimum(self):
        s = two_qubit_state(np.pi / 6)
        strat = build_strategy(s, "I", p=0.7)
        assert strat.beta == pytest.approx(0.7, abs=1e-10)
        assert strat.nu == pytest.approx(0.3, abs=1e-10)

    def test_kind_ii_optimum(self):
        strat = build_strategy(two_qubit_state(np.pi / 6), "II")
        assert strat.beta == pytest.approx(3 / 7, abs=1e-10)

    @pytest.mark.parametrize("kind", ["I", "II", "III"])
    @pytest.mark.parametrize("d", [2, 5])
    def test_beta_of_one_refused(self, kind, d):
        """At p = 0 with c_0^2 rounding to 1, beta = (1 - p) c_0^2 is 1 for II
        and III, as is kind I's max(p, 1 - p): one check refuses each build,
        naming p and the kind."""
        s = make_schmidt_state([1.0, 1e-9] + [1e-10] * (d - 2))
        assert s.coeffs[0] ** 2 == 1.0
        match = f"p = 0.0 leaves no spectral gap for kind {kind}: beta = 1 "
        with pytest.raises(OutOfRangeError, match=match):
            build_strategy(s, kind, p=0.0)

    @pytest.mark.parametrize("p", [-0.5, 1.0, float("nan")])
    @pytest.mark.parametrize("kind", ["I", "II", "III", "IV"])
    def test_p_outside_unit_interval_refused(self, kind, p):
        """Kinds I-IV refuse a p outside [0, 1), NaN included, before their
        beta is read: kind I's max(p, 1 - p) would be 1.5 or nan."""
        with pytest.raises(OutOfRangeError, match=rf"p must be in \[0, 1\) for kind {kind},"):
            build_strategy(two_qubit_state(0.5), kind, p=p)

    @pytest.mark.parametrize("d", [2, 5])
    def test_kind_iv_keeps_its_gap_where_c0_rounds_to_one(self, d):
        """Kind IV's beta at p = 0 is (c_0^2 + c_1^2)/2 <= 1/2, so the target
        that II and III refuse at p = 0 builds."""
        s = make_schmidt_state([1.0, 1e-9] + [1e-10] * (d - 2))
        strat = build_strategy(s, "IV", p=0.0)
        assert strat.beta == 0.5 and strat.nu == 0.5

    def test_kind_v_homogeneous_beta(self):
        strat = build_strategy(two_qubit_state(np.pi / 4), "V", p=1 / np.e)
        assert strat.beta == pytest.approx(1 / np.e, abs=1e-12)
        assert strat.nu == pytest.approx(1 - 1 / np.e, abs=1e-12)

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

    @pytest.mark.parametrize(
        "p", ["0.5", 0.5j, True, [0.5]], ids=["str", "complex", "bool", "list"]
    )
    def test_p_must_be_a_real_number(self, p):
        """A p that is not a real number, or is a bool, is refused rather than
        converted through float()."""
        s = make_schmidt_state([2.0, 1.0, 1.0])
        calls = [partial(one_way_diagonal_test, s, p), partial(two_way_diagonal_test, s, p)]
        for kind in strategies.STRATEGY_KINDS:
            calls += [partial(build_strategy, s, kind, p=p), partial(closed_form_beta, s, kind, p)]
        for call in calls:
            with pytest.raises(OutOfRangeError, match="p must be a real number"):
                call()

    def test_p_of_none_refused_where_there_is_no_default(self):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        for call in (
            partial(closed_form_beta, s, "II", None),
            partial(one_way_diagonal_test, s, None),
            partial(two_way_diagonal_test, s, None),
        ):
            with pytest.raises(OutOfRangeError, match="p must be a real number, got None"):
                call()

    def test_numpy_scalar_p_accepted(self):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        for p in (np.float64(0.75), np.float32(0.75), np.int64(0)):
            strat = build_strategy(s, "IV", p=p)
            assert type(strat.p) is float and strat.p == float(p)
            assert closed_form_beta(s, "I", p) == max(float(p), 1.0 - float(p))

    def test_label_is_normalized_once(self):
        """closed_form_beta reads a label as build_strategy and optimal_p do,
        and answers None only for a label that is not a built-in kind."""
        s = make_schmidt_state([2.0, 1.0, 1.0])
        for kind in strategies.STRATEGY_KINDS:
            for label in (kind.lower(), f" {kind} "):
                assert closed_form_beta(s, label, 0.3) == closed_form_beta(s, kind, 0.3)
                assert optimal_p(s, label) == optimal_p(s, kind)
        assert closed_form_beta(s, "custom", 0.3) is None
        assert closed_form_beta(s, "custom", None) is None

    def test_closed_form_values(self):
        s = make_schmidt_state([2.0, 1.0, 1.0])
        c2 = s.coeffs**2
        assert closed_form_beta(s, "I", 0.7) == pytest.approx(0.7)
        assert closed_form_beta(s, "II", 0.1) == pytest.approx(0.9 * c2[0])
        assert closed_form_beta(s, "IV", 0.1) == pytest.approx(
            0.9 * (c2[0] + c2[1]) / 2
        )
        assert closed_form_beta(s, "VI", 0.4) == pytest.approx(0.4)


T_QUBIT = standard_test(two_qubit_state(np.pi / 6))


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

    def test_test_for_another_target_rejected(self, monkeypatch):
        """A conditional test made for another target of the same dimension
        is refused before Omega is formed; one made for an equal target is
        accepted."""
        s1 = make_schmidt_state([3.0, 2.0, 1.0])
        s2 = make_schmidt_state([1.0, 1.0, 1.0])
        tests = [(0.5, standard_test(s1)), (0.5, test_projector(s2, fourier_basis(3)))]
        with monkeypatch.context() as patch:
            patch.setattr(strategies, "_mix", None)  # never reached
            with pytest.raises(DesignMismatchError, match="another target"):
                assemble_strategy(s1, tests)
        twin = make_schmidt_state([3.0, 2.0, 1.0])
        tests[1] = (0.5, test_projector(twin, fourier_basis(3)))
        assert assemble_strategy(s1, tests).beta == pytest.approx(0.5, abs=1e-10)

    def test_probabilities_must_sum_to_one(self):
        s = two_qubit_state(np.pi / 6)
        with pytest.raises(OutOfRangeError):
            assemble_strategy(s, [(0.6, standard_test(s))])

    @pytest.mark.parametrize(
        "tests",
        [
            [("a", T_QUBIT)], [(None, T_QUBIT)], [(1j, T_QUBIT)], [(1.0,)], [(1.0, "x")], 5,
            [("0.5", T_QUBIT), (0.5, T_QUBIT)], [(True, T_QUBIT)], [(0.5, T_QUBIT, T_QUBIT)],
        ],
        ids=["str", "none", "complex", "single", "not-a-test", "not-iterable",
             "numeric-str", "bool", "triple"],
    )
    def test_malformed_mixture_rejected(self, tests):
        """Every entry must be a pair of a real number, not a bool, and a
        test; anything else raises OutOfRangeError, not a raw exception."""
        with pytest.raises(OutOfRangeError, match="probability, test"):
            assemble_strategy(T_QUBIT.state, tests)

    @pytest.mark.parametrize("probs", [(np.nan,), (1.0, np.nan)], ids=["alone", "with-one"])
    def test_nan_probability_rejected(self, probs):
        """NaN compares False both ways, so the checks are written to fail it."""
        s = two_qubit_state(np.pi / 6)
        with pytest.raises(OutOfRangeError, match="test probabilities must be positive"):
            assemble_strategy(s, [(q, standard_test(s)) for q in probs])


class TestDirection:
    def _test_and_basis(self, direction):
        s = make_schmidt_state([3.0, 2.0, 1.0])
        basis = random_unbiased_basis(3, np.random.default_rng(5))
        return s, basis, test_projector(s, basis, direction)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_string_direction_is_the_member(self, direction):
        """A direction given by its value runs that direction, as the enum
        member does."""
        s, basis, by_value = self._test_and_basis(direction.value)
        by_member = test_projector(s, basis, direction)
        assert by_value.direction is direction
        assert np.array_equal(by_value.pair_vectors(), by_member.pair_vectors())

    def test_string_direction_in_a_mixture(self):
        """A 50/50 mixture of the standard test and an unbiased-basis test,
        run against a fidelity-0.7 state, has the same exact rate whether the
        direction is the string or the member."""
        s, basis, by_value = self._test_and_basis("AtoB")
        sigma = random_state_at_fidelity(s, 0.7, np.random.default_rng(11))
        rates = [
            exact_pass_rate(assemble_strategy(s, [(0.5, standard_test(s)), (0.5, t)]), sigma)
            for t in (by_value, test_projector(s, basis, Direction.A_TO_B))
        ]
        assert rates[0] == rates[1]

    @pytest.mark.parametrize("direction", ["sideways", "atob", None, 0, ["AtoB"]])
    def test_unknown_direction_refused(self, direction):
        with pytest.raises(OutOfRangeError, match="direction must be .AtoB. or .BtoA."):
            self._test_and_basis(direction)


class TestRandomizedDiagonalTest:
    @pytest.mark.parametrize(
        "table",
        [np.full((2, 3), 0.5), np.full((1, 1), 0.5), np.full(4, 0.5), np.full((2, 2, 2), 0.5)],
        ids=["rectangular", "d=1", "flat", "3-d"],
    )
    def test_table_must_be_square_with_d_at_least_2(self, table):
        with pytest.raises(DimensionMismatchError, match="d x d"):
            RandomizedDiagonalTest(table)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1.5, -0.2])
    def test_entries_must_be_probabilities(self, entry):
        table = np.full((2, 2), 0.5)
        table[0, 1] = entry
        with pytest.raises(OutOfRangeError, match=r"finite and in \[0, 1\]"):
            RandomizedDiagonalTest(table)

    def test_complex_table_refused(self):
        with pytest.raises(OutOfRangeError, match="must be real"):
            RandomizedDiagonalTest(np.full((2, 2), 0.5 + 0.1j))

    def test_malformed_table_refused_before_a_mixture(self):
        """The bad table of a custom mixture is refused when the test is made,
        not as a broadcast error inside assemble_strategy."""
        with pytest.raises(DimensionMismatchError):
            assemble_strategy(T_QUBIT.state, [(1.0, RandomizedDiagonalTest(np.full((2, 3), 0.5)))])

    def test_keeps_a_frozen_copy(self):
        table = np.array([[1.0, 0.25], [0.5, 1]])
        test = RandomizedDiagonalTest(table)
        table[0, 1] = 0.0
        assert test.acceptance[0, 1] == 0.25 and not test.acceptance.flags.writeable
        assert RandomizedDiagonalTest([[1, 0], [0, 1]]).acceptance.dtype == float


def test_array_records_compare_and_hash_by_identity():
    """Records that hold arrays are equal only to themselves and hash by
    identity, so == never asks numpy for an array's truth value and each can
    sit in a set."""
    s = make_schmidt_state([3.0, 2.0, 1.0])
    strat = build_strategy(s, "VI")
    records = [
        s,
        fourier_basis(3),
        roy_scott_set(3),
        depolarize(s, 0.1),
        strat,
        test_projector(s, fourier_basis(3)),
        strat.tests[0][1],
    ]
    twins = [
        make_schmidt_state([3.0, 2.0, 1.0]),
        fourier_basis(3),
        roy_scott_set(3),
        depolarize(s, 0.1),
        build_strategy(s, "VI"),
        test_projector(s, fourier_basis(3)),
        two_way_diagonal_test(s, strat.p),
    ]
    for record, twin in zip(records, twins):
        assert record == record and record != twin
        assert hash(record) == hash(record)
        assert record in {record} and twin not in {record}
        assert len({record, twin, record}) == 2
