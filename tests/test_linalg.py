"""Tests for the dense complex-matrix helpers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    """(d, |Psi><Psi| + D) with D a random real diagonal; with ``tie`` one
    |jk> (j != k) entry equals the top eigenvalue of the {|jj>} block."""
    state = make_schmidt_state(draw(schmidt_coefficients()))
    d, n = state.d, state.dim
    psi = state_vector(state)
    diag = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    omega = np.outer(psi, psi.conj()) + np.diag(diag)
    if draw(st.booleans()):
        jj = np.arange(d) * (d + 1)
        top = np.linalg.eigvalsh(omega[np.ix_(jj, jj)])[-1]
        k = draw(st.sampled_from(np.setdiff1d(np.arange(n), jj).tolist()))
        omega[k, k] = top
    return d, omega


def eig_dims_of(d, omega):
    """Run eig_phase_invariant, returning its result and the sizes of the
    matrices it handed to eig_hermitian."""
    with mock.patch.object(linalg, "eig_hermitian", wraps=linalg.eig_hermitian) as spy:
        w, v = linalg.eig_phase_invariant(omega, d)
    return w, v, [call.args[0].shape[0] for call in spy.call_args_list]


class TestEigPhaseInvariant:
    @settings(max_examples=150, deadline=None)
    @given(phase_invariant_operators())
    def test_block_spectrum_matches_dense(self, case):
        d, omega = case
        w, v, dims = eig_dims_of(d, omega)
        assert dims == [d]
        assert np.abs(w - np.linalg.eigvalsh(omega)[::-1]).max() <= 1e-12
        assert np.abs(omega @ v - v * w).max() <= 1e-12
        assert np.abs(v.conj().T @ v - np.eye(d * d)).max() <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(phase_invariant_operators(), st.data())
    def test_off_structure_entry_takes_the_dense_path(self, case, data):
        d, omega = case
        n = d * d
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        assume(a != b and not (a % (d + 1) == 0 and b % (d + 1) == 0))
        omega[a, b] += 1e-8
        omega[b, a] += 1e-8
        w, v, dims = eig_dims_of(d, omega)
        assert dims == [n]
        dense_w, dense_v = eig_hermitian(omega)
        assert np.array_equal(w, dense_w) and np.array_equal(v, dense_v)

    @pytest.mark.parametrize(
        "index, value", [((1, 1), 1 + 1e-6j), ((0, 1), 0.5)], ids=["block-path", "dense-path"]
    )
    def test_rejects_non_hermitian(self, index, value):
        h = np.eye(4, dtype=complex)
        h[index] = value
        with pytest.raises(NonHermitianError):
            linalg.eig_phase_invariant(h, 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(OutOfRangeError):
            linalg.eig_phase_invariant(np.eye(6), 2)
