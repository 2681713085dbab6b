"""Tests for the dense complex-matrix helpers."""

import re
import tracemalloc

import numpy as np
import pytest

from biverify import (
    eig_hermitian,
    fourier_basis,
    linalg,
    standard_test,
    test_projector,
    two_qubit_state,
)
from biverify.errors import NonHermitianError, OutOfRangeError

import dense_oracle as dense


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


class TestEigHermitian:
    def test_diagonal_input(self):
        w, _ = eig_hermitian(np.diag([1.0, 0.5, 0.5, 0.0]))
        assert np.allclose(w, [1.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_two_test_mixture_spectrum(self):
        """The dense equal mixture of the standard test and the Fourier-basis
        test for the maximally entangled two-qubit target; its spectrum is
        (1, 1/2, 1/2, 0) because the two recentred projectors have orthogonal
        rank-1 supports."""
        s = two_qubit_state(np.pi / 4)
        tests = [(0.5, standard_test(s)), (0.5, test_projector(s, fourier_basis(2)))]
        w, _ = eig_hermitian(dense.mixture(tests))
        assert np.allclose(w, [1.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_rank_one_projector(self):
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi /= np.linalg.norm(psi)
        w, _ = eig_hermitian(np.outer(psi, psi.conj()))
        expect = np.zeros(6)
        expect[0] = 1.0
        assert np.allclose(w, expect, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 5, 16, 64])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        h = random_hermitian(dim, rng)
        w, v = eig_hermitian(h)
        assert np.all(np.diff(w) <= 1e-12), "eigenvalues must be non-increasing"
        recon = (v * w) @ v.conj().T
        assert np.abs(recon - h).max() <= 1e-9
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_refuses_oversized_matrix_before_hermiticity_check(self, monkeypatch):
        """The size limit is checked first, so an oversized matrix costs no
        d^4 Hermiticity temporaries, whatever its entries."""
        monkeypatch.setattr(linalg, "MAX_EIG_DIM", 3)
        with pytest.raises(OutOfRangeError, match="exceeds supported maximum"):
            eig_hermitian(np.triu(np.ones((4, 4))))

    def test_rejects_tiny_asymmetry_beyond_tolerance(self):
        h = np.eye(3, dtype=complex)
        h[0, 1] = 1e-8
        with pytest.raises(NonHermitianError):
            eig_hermitian(h)


class TestRequireHermitian:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        """A NaN defect compares false against any tolerance, so finiteness
        is checked on its own."""
        h = np.diag([bad, 1.0]).astype(complex)
        with pytest.raises(OutOfRangeError, match="finite"):
            linalg.require_hermitian(h)
        with pytest.raises(OutOfRangeError, match="finite"):
            eig_hermitian(h)

    @pytest.mark.parametrize("dim", [3, 300, 577])
    def test_blockwise_defect_is_the_full_max_norm(self, dim):
        """The row blocks, several of them above 256 rows, report the
        max-norm defect of H - H^dagger with its bits, wherever it sits."""
        rng = np.random.default_rng(dim)
        h = random_hermitian(dim, rng)
        h[dim - 1, dim // 2] += 3e-9
        defect = float(np.abs(h - h.conj().T).max())
        message = f"max |H - H^dagger| = {defect:.3e} exceeds tolerance 1.0e-10"
        with pytest.raises(NonHermitianError, match=re.escape(message)):
            linalg.require_hermitian(h)
        assert linalg.require_hermitian(h, atol=defect) is h

    def test_peak_memory_stays_below_the_input(self):
        """The comparison holds no temporary as large as the matrix: at
        D = 576 (d = 24), tracemalloc's peak over entry is below half of the
        input's 5 MiB, where the full H - H^dagger took twice the input."""
        h = random_hermitian(576, np.random.default_rng(1))
        tracemalloc.start()
        try:
            linalg.require_hermitian(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * h.nbytes
