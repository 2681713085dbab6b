"""Tests for basis constructions, unbiasedness, and the 2-design check."""

from dataclasses import replace

import numpy as np
import pytest

from biverify import (
    SchmidtState,
    VerificationBudget,
    build_strategy,
    density_operator,
    embed_density,
    embed_state,
    figure1_grid,
    fourier_basis,
    is_prime,
    is_unbiased,
    make_schmidt_state,
    min_design_size,
    next_prime,
    prime_mub_set,
    random_unbiased_basis,
    roy_scott_set,
    standard_basis,
    verify_2design,
)
from biverify.bases import Basis, WeightedBasisSet, _basis_set, _rows
from biverify.designs import _design
from biverify.errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    NotPrimeError,
    OutOfRangeError,
    TooFewBasesError,
)


class TestElementaryBases:
    def test_standard_d2(self):
        b = standard_basis(2)
        assert np.array_equal(b.vectors, np.eye(2))

    def test_standard_gram_is_exact_identity(self):
        for d in (2, 3, 6, 11):
            b = standard_basis(d)
            gram = b.vectors.conj().T @ b.vectors
            assert np.abs(gram - np.eye(d)).max() <= 1e-15

    def test_fourier_d2(self):
        b = fourier_basis(2)
        s = 1 / np.sqrt(2)
        assert np.allclose(b.vectors[:, 0], [s, s], atol=1e-15)
        assert np.allclose(b.vectors[:, 1], [s, -s], atol=1e-15)

    def test_fourier_d3_component(self):
        """Ket 1, component k = 2 is omega^2/sqrt(3) = exp(4 pi i/3)/sqrt(3)."""
        b = fourier_basis(3)
        expect = np.exp(4j * np.pi / 3) / np.sqrt(3)
        assert abs(b.vectors[2, 1] - expect) <= 1e-14

    def test_fourier_unbiased_with_standard(self):
        assert is_unbiased(standard_basis(5), fourier_basis(5), tol=1e-10)

    def test_orthonormality_validated(self):
        with pytest.raises(OutOfRangeError):
            Basis(d=2, vectors=np.array([[1.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_ket_refused(self, bad):
        """A NaN Gram defect compares false against any tolerance, so a NaN
        or inf entry is refused before the Gram product."""
        with pytest.raises(OutOfRangeError, match="basis kets must be finite"):
            Basis(2, [[bad, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("huge", [1e200 + 1e200j, 1.7e308 + 1.7e308j])
    def test_huge_ket_refused_before_the_gram_product(self, huge):
        """A finite entry above 1 is refused as it stands, where its Gram
        product would overflow (the second one's modulus is inf)."""
        with pytest.raises(OutOfRangeError, match="basis kets must have unit norm"):
            Basis(2, [[huge, 0.0], [0.0, 1.0]])


class TestIsUnbiased:
    def test_standard_with_itself(self):
        assert not is_unbiased(standard_basis(3), standard_basis(3))

    def test_phase_shifted_fourier_is_same_basis(self):
        """A global phase on one ket leaves overlaps 0 or 1, so the pair is
        (still) not unbiased with itself."""
        b = fourier_basis(3)
        shifted = b.vectors.copy()
        shifted[:, 1] *= np.exp(0.7j)
        assert not is_unbiased(b, Basis(d=3, vectors=shifted))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_unbiased(standard_basis(2), standard_basis(3))

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_invalid_tolerance_rejected(self, tol):
        with pytest.raises(OutOfRangeError, match="tolerance"):
            is_unbiased(standard_basis(3), fourier_basis(3), tol=tol)

    def test_random_unbiased_basis(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 6):
            b = random_unbiased_basis(d, rng)
            assert is_unbiased(standard_basis(d), b, tol=1e-12)


class TestPrimeMubSet:
    def test_d2_is_pauli_eigenbases(self):
        s = 1 / np.sqrt(2)
        mubs = prime_mub_set(2)
        assert mubs.m == 3
        assert np.allclose(mubs.bases[1].vectors, np.array([[s, s], [s, -s]]), atol=1e-15)
        assert np.allclose(
            mubs.bases[2].vectors, np.array([[s, s], [1j * s, -1j * s]]), atol=1e-15
        )
        ok, residual = verify_2design(mubs, tol=1e-10)
        assert ok and residual <= 1e-10

    def test_d3_all_pairs_unbiased(self):
        mubs = prime_mub_set(3)
        assert mubs.m == 4
        for a in range(4):
            for b in range(a + 1, 4):
                overlap = np.abs(
                    mubs.bases[a].vectors.conj().T @ mubs.bases[b].vectors
                ) ** 2
                assert np.abs(overlap - 1 / 3).max() <= 1e-12

    def test_composite_rejected(self):
        with pytest.raises(NotPrimeError):
            prime_mub_set(4)

    @pytest.mark.parametrize("d", [3, 5, 7, 11])
    def test_kets_match_the_quadratic_phase_formula(self, d):
        """Each ket built one phase at a time as the formula reads,
        omega^{r k^2 + j k}/sqrt(d) with the exponent reduced mod d."""
        mubs = prime_mub_set(d)
        k = np.arange(d)
        for r in range(1, d + 1):
            for j in range(d):
                ket = np.exp(2j * np.pi * ((r * k * k + j * k) % d) / d) / np.sqrt(d)
                assert np.abs(mubs.bases[r].vectors[:, j] - ket).max() <= 1e-15

    def test_uniform_weights(self):
        mubs = prime_mub_set(5)
        assert np.allclose(mubs.weights, 1 / 6, atol=1e-15)
        assert abs(mubs.weights.sum() - 1.0) <= 1e-12


class TestRoyScottSet:
    def test_phase_value(self):
        """For d=3, m=4 the (l=1, j=0, k=2) phase is 2 pi [0 + 1*1/3] = 2 pi/3."""
        design = roy_scott_set(3, 4)
        expect = np.exp(2j * np.pi / 3) / np.sqrt(3)
        assert abs(design.bases[1].vectors[2, 0] - expect) <= 1e-14

    def test_d6_weights(self):
        design = roy_scott_set(6, 20)
        assert design.m == 20
        assert design.weights[0] == pytest.approx(1 / 7, abs=1e-15)
        assert np.allclose(design.weights[1:], 6 / (19 * 7), atol=1e-15)
        assert abs(design.weights.sum() - 1.0) <= 1e-12

    def test_default_size_is_the_bound(self):
        assert min_design_size(3) == 4
        assert min_design_size(6) == 20
        assert roy_scott_set(3).m == 4
        assert roy_scott_set(6).m == 20

    def test_d2_rejected(self):
        with pytest.raises(DimensionTooSmallError):
            roy_scott_set(2)

    def test_too_few_bases(self):
        with pytest.raises(TooFewBasesError):
            roy_scott_set(6, 19)

    def test_each_phase_basis_unbiased_with_standard(self):
        design = roy_scott_set(4)
        for l in range(1, design.m):
            assert is_unbiased(design.bases[0], design.bases[l], tol=1e-10)

    @pytest.mark.parametrize("d, m", [(3, 4), (4, 8), (6, 20), (6, 23), (9, 49)])
    def test_phases_match_the_loop_construction(self, d, m):
        """Each ket built one phase at a time, as the formula reads."""
        design = roy_scott_set(d, m)
        k = np.arange(d)
        comb2 = (k * (k - 1)) // 2
        for l in range(1, m):
            phase_l = np.exp(2j * np.pi * ((l * comb2) % (m - 1)) / (m - 1))
            for j in range(d):
                phase_j = np.exp(2j * np.pi * ((j * k) % d) / d)
                ket = phase_j * phase_l / np.sqrt(d)
                assert np.array_equal(design.bases[l].vectors[:, j], ket)

    @pytest.mark.parametrize("d, m", [(3, 4), (6, 20), (9, 49), (12, 95)])
    def test_rows_match_the_quadratic_phase_formula(self, d, m):
        """Row l of the table is exp(2 pi i l C(a, 2)/(m-1)), read without
        reducing the exponent."""
        rows = _rows(_design(d, m))
        a = np.arange(d)
        for l in range(1, m):
            phase = np.exp(2j * np.pi * l * (a * (a - 1) / 2) / (m - 1))
            assert np.abs(rows[l - 1] - phase).max() <= 1e-13


class TestVerify2Design:
    """The 2-design certificate of the built-in basis sets: the constructors
    do not check their own output."""

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19, 23])
    def test_complete_mub_sets(self, d):
        ok, residual = verify_2design(prime_mub_set(d), tol=1e-10)
        assert ok and residual <= 1e-10

    @pytest.mark.parametrize("d", [3, 4, 6, 8, 9, 10, 12])
    def test_phase_designs(self, d):
        ok, residual = verify_2design(roy_scott_set(d), tol=1e-10)
        assert ok and residual <= 1e-10

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_invalid_tolerance_rejected(self, tol):
        with pytest.raises(OutOfRangeError, match="tolerance"):
            verify_2design(prime_mub_set(5), tol=tol)

    def test_standard_basis_alone_fails(self):
        """sum_j |jj><jj| vs (I + 2|Phi><Phi|)/3 at d=2: the (00,00) entry is
        1 vs 2/3 and the (00,11) entry 0 vs 1/3, so the max residual is 1/3."""
        lone = WeightedBasisSet(bases=(standard_basis(2),), weights=np.array([1.0]))
        ok, residual = verify_2design(lone, tol=1e-10)
        assert not ok
        assert residual == pytest.approx(1 / 3, abs=1e-12)

    def test_phase_design_d6(self):
        ok, residual = verify_2design(roy_scott_set(6, 20), tol=1e-10)
        assert ok and residual <= 1e-10


def _built_in_designs():
    """(d, m) of every built-in design for d = 2..12: the complete MUB set
    at prime d, the Roy-Scott design at its bound and one size above."""
    cases = [(d, None) for d in range(2, 13) if is_prime(d)]
    for d in range(3, 13):
        cases += [(d, min_design_size(d)), (d, min_design_size(d) + 3)]
    return cases


def _corrupted_designs():
    """Corruptions of the d=6, m=20 table: one exponent changed so that
    g_1(2) = g_1(1) collides, and three multipliers dropped (n = 16 < M = 19),
    which leaves every g_1 injective but not constant mod M."""
    honest = _design(6, 20)
    e = list(honest.exponents)
    e[2] = (2 * e[1] - e[0]) % honest.modulus
    return {
        "rows-dropped": replace(honest, multipliers=range(1, 17)),
        "phase-perturbed": replace(honest, exponents=tuple(e)),
    }


CORRUPTED = _corrupted_designs()


class TestTableCertificate:
    """A built-in design's exact certificate read from its integer table has
    the verdict of the dense ``verify_2design`` on its basis set, and for a
    table whose multipliers span the full period M its value as well."""

    @staticmethod
    def _compare(design, same_value=True):
        residual = design.residual()
        ok, dense = verify_2design(_basis_set(design))
        if same_value:
            assert abs(residual - dense) <= 1e-12
        assert (residual == 0.0) is ok
        return residual

    @pytest.mark.parametrize("d, m", _built_in_designs())
    def test_built_in_designs(self, d, m):
        assert self._compare(_design(d, m)) == 0.0

    @pytest.mark.parametrize("name", sorted(CORRUPTED))
    def test_corrupted_tables(self, name):
        """Corruptions of the d=6, m=20 table (``_design(6, 20)`` is among
        the built-in cases) fail both checks; the dense residual of the
        dropped rows lies below the 1/(d+1) that the certificate reports,
        so only its verdict is compared."""
        design = CORRUPTED[name]
        assert self._compare(design, same_value=name != "rows-dropped") == 1 / 7


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: roy_scott_set(4, 8.0),
            lambda: roy_scott_set(4, 8.5),
            lambda: build_strategy(make_schmidt_state([3.0, 2.0, 1.0, 1.0]), "III", m=8.5),
            lambda: prime_mub_set(5.0),
            lambda: standard_basis(2.5),
            lambda: fourier_basis(3.0),
            lambda: embed_state(make_schmidt_state([2.0, 1.0]), 4.5),
            lambda: embed_density(density_operator(np.eye(4) / 4), 4.5),
            lambda: random_unbiased_basis(3.0, np.random.default_rng(0)),
            lambda: Basis(2.0, np.eye(2)),
            lambda: figure1_grid(2.5),
            lambda: SchmidtState(3.0, np.ones(3) / np.sqrt(3)),
            lambda: VerificationBudget(0.1, 0.1, 2.5),
            lambda: min_design_size(2.5),
            lambda: min_design_size(True),
            lambda: min_design_size("a"),
            lambda: is_prime(7.5),
            lambda: next_prime(2.5),
        ],
        ids=[
            "roy-scott-float-m",
            "roy-scott-fractional-m",
            "build-fractional-m",
            "mub-float-d",
            "standard-fractional-d",
            "fourier-float-d",
            "embed-state-fractional-d",
            "embed-density-fractional-d",
            "random-unbiased-float-d",
            "basis-float-d",
            "figure1-fractional-grid-size",
            "schmidt-state-float-d",
            "budget-fractional-n-tests",
            "min-design-size-fractional-d",
            "min-design-size-bool-d",
            "min-design-size-string-d",
            "is-prime-fractional-n",
            "next-prime-fractional-n",
        ],
    )
    def test_non_integer_dimension_or_size_rejected(self, call):
        with pytest.raises(OutOfRangeError, match="must be an integer"):
            call()

    @pytest.mark.parametrize(
        "call", [lambda: min_design_size(-3), lambda: min_design_size(1), lambda: is_prime(-1)]
    )
    def test_out_of_range_rejected(self, call):
        with pytest.raises(OutOfRangeError, match="must be >="):
            call()

    def test_design_bound_is_exact_in_integers(self):
        """ceil(3(d-1)^2/4) + 1 without a float: at d = 10^9 + 7 the float
        ceil is off by 27."""
        d = 10**9 + 7
        assert min_design_size(d) == -(-3 * (d - 1) ** 2 // 4) + 1
        assert [min_design_size(d) for d in range(2, 8)] == [2, 4, 8, 13, 20, 28]

    def test_numpy_integers_accepted(self):
        assert roy_scott_set(np.int64(4), np.int64(8)).m == 8
        assert prime_mub_set(np.int64(5)).m == 6
        assert standard_basis(np.int64(3)).vectors.shape == (3, 3)
        assert fourier_basis(np.int64(3)).vectors.shape == (3, 3)
        state = SchmidtState(np.int64(2), np.array([0.8, 0.6]))
        assert type(state.d) is int
        assert type(embed_state(state, np.int64(3)).d) is int
        rho = embed_density(density_operator(np.eye(4) / 4), np.int64(3))
        assert rho.dim == 9
        rng = np.random.default_rng(0)
        assert type(random_unbiased_basis(np.int64(3), rng).d) is int
        assert type(Basis(np.int64(2), np.eye(2)).d) is int
        assert len(figure1_grid(np.int64(3))) == 3
        assert type(VerificationBudget(0.1, 0.1, np.int64(5)).n_tests) is int
        assert type(min_design_size(np.int64(6))) is int
        assert is_prime(np.int64(7)) and next_prime(np.int64(8)) == 11


class TestPrimes:
    def test_is_prime(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_next_prime(self):
        assert next_prime(4) == 5
        assert next_prime(6) == 7
        assert next_prime(7) == 7
        assert next_prime(8) == 11


class TestWeightedBasisSetValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(OutOfRangeError):
            WeightedBasisSet(
                bases=(standard_basis(2), fourier_basis(2)),
                weights=np.array([0.5, 0.6]),
            )

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_weights_refused(self, weights):
        """A NaN sum compares false against the tolerance, so the check asks
        for a sum within it."""
        with pytest.raises(OutOfRangeError, match="weights must sum to 1, got (nan|inf)"):
            WeightedBasisSet((standard_basis(2), fourier_basis(2)), weights)

    def test_complex_weights_refused(self):
        with pytest.raises(OutOfRangeError, match="must be real"):
            WeightedBasisSet(
                bases=(standard_basis(2), fourier_basis(2)),
                weights=np.array([0.5 + 0.1j, 0.5]),
            )

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            WeightedBasisSet(
                bases=(standard_basis(2), standard_basis(3)),
                weights=np.array([0.5, 0.5]),
            )
