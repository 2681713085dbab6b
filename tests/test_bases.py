"""Tests for basis constructions, unbiasedness, and the 2-design check."""

import numpy as np
import pytest

from biverify import (
    fourier_basis,
    is_prime,
    is_unbiased,
    min_design_size,
    next_prime,
    prime_mub_set,
    random_unbiased_basis,
    roy_scott_set,
    standard_basis,
    verify_2design,
)
from biverify.bases import Basis, WeightedBasisSet
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
        assert np.allclose(b.ket(0), [s, s], atol=1e-15)
        assert np.allclose(b.ket(1), [s, -s], atol=1e-15)

    def test_fourier_d3_component(self):
        """Ket 1, component k = 2 is omega^2/sqrt(3) = exp(4 pi i/3)/sqrt(3)."""
        b = fourier_basis(3)
        expect = np.exp(4j * np.pi / 3) / np.sqrt(3)
        assert abs(b.ket(1)[2] - expect) <= 1e-14

    def test_fourier_unbiased_with_standard(self):
        assert is_unbiased(standard_basis(5), fourier_basis(5), tol=1e-10)

    def test_orthonormality_validated(self):
        with pytest.raises(OutOfRangeError):
            Basis(d=2, vectors=np.array([[1.0, 1.0], [0.0, 0.0]]))


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

    def test_uniform_weights(self):
        mubs = prime_mub_set(5)
        assert np.allclose(mubs.weights, 1 / 6, atol=1e-15)
        assert abs(mubs.weights.sum() - 1.0) <= 1e-12


class TestRoyScottSet:
    def test_phase_value(self):
        """For d=3, m=4 the (l=1, j=0, k=2) phase is 2 pi [0 + 1*1/3] = 2 pi/3."""
        design = roy_scott_set(3, 4)
        expect = np.exp(2j * np.pi / 3) / np.sqrt(3)
        assert abs(design.bases[1].ket(0)[2] - expect) <= 1e-14

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
                assert np.array_equal(design.bases[l].ket(j), ket)


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

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            WeightedBasisSet(
                bases=(standard_basis(2), standard_basis(3)),
                weights=np.array([0.5, 0.5]),
            )
