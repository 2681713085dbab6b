"""Tests for the dense complex-matrix helpers."""

import numpy as np
import pytest

from biverify import eig_hermitian, linalg
from biverify.errors import NonHermitianError, OutOfRangeError


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


class TestEigHermitian:
    def test_diagonal_input(self):
        w, _ = eig_hermitian(np.diag([1.0, 0.5, 0.5, 0.0]))
        assert np.allclose(w, [1.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_two_test_mixture_spectrum(self):
        """Brute-force build of the equal mixture of the standard test and the
        Fourier-basis test for the maximally entangled two-qubit target; its
        spectrum is (1, 1/2, 1/2, 0) because the two recentred projectors have
        orthogonal rank-1 supports."""
        c = np.array([1.0, 1.0]) / np.sqrt(2)
        p0 = np.zeros((4, 4), dtype=complex)
        p0[0, 0] = p0[3, 3] = 1.0
        p1 = np.zeros((4, 4), dtype=complex)
        for j, sign in enumerate([1.0, -1.0]):
            u = np.array([1.0, sign]) / np.sqrt(2)
            v = c * u.conj()
            v /= np.linalg.norm(v)
            p1 += np.kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
        w, _ = eig_hermitian((p0 + p1) / 2)
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
