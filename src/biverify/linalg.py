"""Dense complex-matrix helpers: Gram sums and Hermitian spectra.

Only custom mixtures (``strategies.assemble_strategy``) solve an eigenproblem,
and only they and ``verify_2design`` form a Gram sum: the built-in strategies
read their spectrum off the paper's closed form.  This module adds explicit
tolerance checks and the descending eigenvalue convention to numpy.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import NonHermitianError, OutOfRangeError, Tolerance

MAX_EIG_DIM = 4096
# Blocks stacked into one matrix product by weighted_gram: large enough for
# BLAS to run at full speed, small enough that the stack stays a few MiB.
GRAM_CHUNK = 16
# complex entries of one row block that require_hermitian compares with its
# transpose: 1 MiB per temporary
_HERMITIAN_BLOCK = 2**16


def _numeric(a, name: str) -> np.ndarray:
    """``a`` as a numpy array of numbers: a ragged list, a string entry and
    an entry no double holds (``10**400``) are refused, where numpy would
    raise its own error or, for a numeric string, parse it."""
    try:
        arr = np.asarray(a)
        if arr.dtype.kind == "O":  # mixed Python numbers, or ints beyond int64
            arr = arr.astype(complex)
    except (ValueError, TypeError, OverflowError):
        raise OutOfRangeError(f"{name} must be a rectangular array of numbers") from None
    if arr.dtype.kind not in "biufc":
        raise OutOfRangeError(f"{name} must hold numbers, got {arr.dtype} entries")
    return arr


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    m = _numeric(a, "matrix").astype(complex, copy=False)
    if m.ndim != 2:
        raise OutOfRangeError(f"expected a 2-D matrix, got array of shape {m.shape}")
    return m


def real_array(a, name: str) -> np.ndarray:
    """A float copy of ``a``; a complex entry with a nonzero imaginary part
    is refused, where numpy's cast would drop it with only a warning."""
    arr = _numeric(a, name)
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise OutOfRangeError(f"{name} must be real, got a nonzero imaginary part")
        arr = arr.real
    return arr.astype(float)


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


def require_hermitian(h) -> np.ndarray:
    """``h`` as a complex matrix, after checking that it is square, finite and
    Hermitian within ``Tolerance.MATRIX`` in max-norm.  Rows are compared
    with the matching columns a block at a time, so no temporary is as large
    as ``h``."""
    h = as_matrix(h)
    if not np.isfinite(h).all():
        raise OutOfRangeError("matrix entries must be finite")
    n = h.shape[0]
    if n != h.shape[1]:
        defect = float("inf")
    else:
        step = max(1, _HERMITIAN_BLOCK // max(n, 1))
        defect = max(
            (
                float(np.abs(h[i : i + step] - h[:, i : i + step].conj().T).max())
                for i in range(0, n, step)
            ),
            default=0.0,
        )
    if defect > Tolerance.MATRIX:
        raise NonHermitianError(
            f"max |H - H^dagger| = {defect:.3e} exceeds tolerance {Tolerance.MATRIX:.1e}"
        )
    return h


def check_eig_dim(n: int) -> None:
    """Refuse an n x n eigenproblem above ``MAX_EIG_DIM``."""
    if n > MAX_EIG_DIM:
        raise OutOfRangeError(f"matrix dimension {n} exceeds supported maximum {MAX_EIG_DIM}")


def eig_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted in descending order
    (multiplicities repeated) and ``v[:, i]`` the orthonormal eigenvector for
    ``w[i]``.  No eigenvector convention is promised inside a degenerate
    eigenspace.
    """
    h = as_matrix(h)
    check_eig_dim(h.shape[0])
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return w[::-1].copy(), v[:, ::-1].copy()
