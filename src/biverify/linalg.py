"""Dense complex-matrix helpers: Gram sums and Hermitian spectra.

Every operator in this package is a small dense ``complex128`` matrix, so
numpy's eigensolver is used directly; what this module adds are the explicit
tolerance checks, the descending eigenvalue convention the verification
analysis relies on, and the block spectrum of operators on C^d x C^d that
commute with the local phases diag(e^{i phi}) x diag(e^{-i phi}).
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import NonHermitianError, OutOfRangeError

HERMITIAN_ATOL = 1e-10
MAX_EIG_DIM = 4096
# Frobenius norm up to which the part of a d^2 x d^2 operator outside the
# {|jj>} block and the diagonal is treated as round-off.  By Weyl's
# inequality no eigenvalue moves by more than this norm; the design
# strategies' operators measure below 1e-15 there up to d = 20.
PHASE_BLOCK_ATOL = 1e-12
# Blocks stacked into one matrix product by weighted_gram: large enough for
# BLAS to run at full speed, small enough that the stack stays a few MiB.
GRAM_CHUNK = 16


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise OutOfRangeError(f"expected a 2-D matrix, got array of shape {m.shape}")
    return m


def weighted_gram(blocks, dim: int) -> np.ndarray:
    """sum_k q_k X_k X_k^dagger over ``(X_k, q_k)`` pairs as one dim x dim matrix.

    Each ``X_k`` is a ``dim x n_k`` block of column vectors sharing the real
    weight ``q_k``.  Blocks are consumed lazily and stacked ``GRAM_CHUNK`` at
    a time into one product ``X diag(q) X^dagger``, so only one chunk of
    vectors is ever held.
    """
    out = np.zeros((dim, dim), dtype=complex)
    blocks = iter(blocks)
    while chunk := list(itertools.islice(blocks, GRAM_CHUNK)):
        x = np.concatenate([block for block, _ in chunk], axis=1)
        q = np.repeat([q for _, q in chunk], [block.shape[1] for block, _ in chunk])
        out += (x * q) @ x.conj().T
    return out


def party_swap(m: np.ndarray, d: int) -> np.ndarray:
    """SWAP M SWAP for a d^2 x d^2 operator on C^d x C^d: a permutation of
    its entries, so exact."""
    return m.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


def require_hermitian(h, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    h = as_matrix(h)
    square = h.shape[0] == h.shape[1]
    defect = float(np.abs(h - h.conj().T).max()) if square else float("inf")
    if defect > atol:
        raise NonHermitianError(
            f"max |H - H^dagger| = {defect:.3e} exceeds tolerance {atol:.1e}"
        )
    return h


def eig_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted in descending order
    (multiplicities repeated) and ``v[:, i]`` the orthonormal eigenvector for
    ``w[i]``.  No eigenvector convention is promised inside a degenerate
    eigenspace.
    """
    h = require_hermitian(h)
    if h.shape[0] > MAX_EIG_DIM:
        raise OutOfRangeError(
            f"matrix dimension {h.shape[0]} exceeds supported maximum {MAX_EIG_DIM}"
        )
    w, v = np.linalg.eigh(h)
    return w[::-1].copy(), v[:, ::-1].copy()


def eig_phase_invariant(h, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian d^2 x d^2 operator, read from its
    d x d block on span{|jj>} when the operator has that structure.

    An operator that commutes with every diag(e^{i phi}) x diag(e^{-i phi})
    is one d x d block on span{|jj>} plus a diagonal on the |jk> (j != k),
    as are the design strategies' operators.  When the rest of ``h`` has a
    Frobenius norm of at most PHASE_BLOCK_ATOL, the block is solved with
    ``eig_hermitian`` and each |jk> diagonal entry is an eigenvalue with
    eigenvector |jk>; otherwise ``h`` is solved densely.  Returns ``(w, v)``
    as ``eig_hermitian`` does; on ties the block's eigenvalues come first.
    """
    h = as_matrix(h)
    n = d * d
    if h.shape != (n, n):
        raise OutOfRangeError(f"expected a {n}x{n} matrix, got shape {h.shape}")
    jj = np.arange(d) * (d + 1)
    if _off_block_norm(h, jj) > PHASE_BLOCK_ATOL:
        return eig_hermitian(h)
    require_hermitian(h)
    wb, vb = eig_hermitian(h[np.ix_(jj, jj)])
    off = np.flatnonzero(np.arange(n) % (d + 1))  # the |jk>, j != k
    w = np.concatenate([wb, h.diagonal().real[off]])
    order = np.argsort(-w, kind="stable")
    column = np.empty(n, dtype=int)
    column[order] = np.arange(n)
    v = np.zeros((n, n), dtype=complex)
    v[np.ix_(jj, column[:d])] = vb
    v[off, column[d:]] = 1.0
    return w[order], v


def _off_block_norm(h: np.ndarray, jj: np.ndarray) -> float:
    """Frobenius norm of ``h`` outside its (jj, jj) block and its diagonal."""
    rest = h.copy()
    rest[np.ix_(jj, jj)] = 0.0
    rest.flat[:: h.shape[0] + 1] = 0.0
    return float(np.linalg.norm(rest))

