"""Tests for the dense complex-matrix helpers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biverify import eig_hermitian, linalg, make_schmidt_state
from biverify.errors import NonHermitianError, OutOfRangeError
from biverify.states import state_vector


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


unit = st.floats(0.01, 1.0)


@st.composite
def schmidt_coefficients(draw):
    """Raw Schmidt amplitudes: random, zero-tailed, near-product (c_1 ~ 1e-7)
    or with repeated values."""
    d = draw(st.integers(2, 7))
    family = draw(st.sampled_from(["random", "zero-tail", "near-product", "degenerate"]))
    if family == "random":
        return draw(st.lists(unit, min_size=d, max_size=d))
    if family == "zero-tail":
        rank = draw(st.integers(1, d - 1))
        return draw(st.lists(unit, min_size=rank, max_size=rank)) + [0.0] * (d - rank)
    if family == "near-product":
        tail = draw(st.lists(st.floats(0.0, 1.0), min_size=d - 2, max_size=d - 2))
        c1 = 1e-7 * draw(st.floats(0.5, 2.0))
        return [1.0, c1] + [c1 * t for t in tail]
    return draw(st.lists(st.sampled_from([1.0, 0.5, 0.25]), min_size=d, max_size=d))


@st.composite
def phase_invariant_operators(draw):
    """(block, diagonal, dense) for |Psi><Psi| + D with D a random real
    diagonal: the d x d block c c^T on span{|jj>}, the d^2 diagonal D and the
    dense d^2 x d^2 matrix; with ``tie`` one |jk> (j != k) entry equals the
    top eigenvalue of the {|jj>} block."""
    state = make_schmidt_state(draw(schmidt_coefficients()))
    d, n = state.d, state.dim
    psi = state_vector(state)
    diag = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    jj = np.arange(d) * (d + 1)
    block = np.outer(state.coeffs, state.coeffs)
    if draw(st.booleans()):
        top = np.linalg.eigvalsh(block + np.diag(diag[jj]))[-1]
        k = draw(st.sampled_from(np.setdiff1d(np.arange(n), jj).tolist()))
        diag[k] = top
    return block, diag, np.outer(psi, psi.conj()) + np.diag(diag)


def eig_dims_of(block, diagonal):
    """Run eig_phase_invariant, returning its result and the sizes of the
    matrices it handed to eig_hermitian."""
    with mock.patch.object(linalg, "eig_hermitian", wraps=linalg.eig_hermitian) as spy:
        w, v = linalg.eig_phase_invariant(block, diagonal)
    return w, v, [call.args[0].shape[0] for call in spy.call_args_list]


class TestEigPhaseInvariant:
    @settings(max_examples=150, deadline=None)
    @given(phase_invariant_operators())
    def test_block_spectrum_matches_dense(self, case):
        block, diagonal, omega = case
        d = block.shape[0]
        w, v, dims = eig_dims_of(block, diagonal)
        assert dims == [d]
        assert np.abs(w - np.linalg.eigvalsh(omega)[::-1]).max() <= 1e-12
        assert v.shape == (d * d, 2)
        assert np.abs(omega @ v - v * w[:2]).max() <= 1e-12
        assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("index, value", [((1, 1), 1 + 1e-6j)], ids=["block-path"])
    def test_rejects_non_hermitian(self, index, value):
        block = np.eye(2, dtype=complex)
        block[index] = value
        with pytest.raises(NonHermitianError):
            linalg.eig_phase_invariant(block, np.zeros(4))

    def test_rejects_wrong_shape(self):
        cases = [
            (np.eye(2), np.zeros(6)),
            (np.eye(2), np.zeros((2, 2))),
            (np.ones((2, 3)), np.zeros(4)),
        ]
        for block, diagonal in cases:
            with pytest.raises(OutOfRangeError, match="expected a"):
                linalg.eig_phase_invariant(block, diagonal)

    def test_rejects_all_nan(self):
        with pytest.raises(OutOfRangeError, match="finite"):
            linalg.eig_phase_invariant(np.full((2, 2), np.nan), np.full(4, np.nan))

    def test_rejects_non_finite_off_block_diagonal(self):
        """A diagonal entry off span{|jj>} never enters the block solve, so
        its finiteness is checked on its own."""
        with pytest.raises(OutOfRangeError, match="finite"):
            linalg.eig_phase_invariant(np.eye(2), np.array([0.0, np.inf, 0.0, 0.0]))


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
