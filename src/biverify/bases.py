"""Measurement bases and weighted basis sets.

Provides the standard and Fourier bases, complete sets of mutually unbiased
bases (MUBs) for prime dimensions, and the weighted phase-basis designs of
Roy and Scott, together with numerical checks of unbiasedness and of the
2-design second-moment identity.

Each fact about a construction is certified in one place.  ``Basis`` checks
that its kets are orthonormal.  The 2-design identity of a basis set is
certified by ``verify_2design``, which the ``check-design`` command and the
tests run; for d+1 bases with uniform weights it holds exactly when the
bases are mutually unbiased (Klappenecker and Roetteler, 2005), so the MUB
sets need no separate pairwise check.  A strategy build certifies the
identity it relies on, the design test average d/(d+1) Pi, on the tests it
builds (see ``strategies.build_strategy``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    NotPrimeError,
    OutOfRangeError,
    TooFewBasesError,
)

ORTHO_ATOL = 1e-10
UNIT_ATOL = 1e-12
WEIGHT_ATOL = 1e-12
UNBIASED_ATOL = 1e-10
# max-norm residual up to which a design identity (the 2-design second
# moment, or a strategy's design test average) counts as holding
DESIGN_ATOL = 1e-10


@dataclass(frozen=True)
class Basis:
    """An orthonormal basis of C^d; column j of ``vectors`` is ket j."""

    d: int
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.shape != (self.d, self.d):
            raise DimensionMismatchError(
                f"expected a {self.d}x{self.d} matrix of kets, got {v.shape}"
            )
        gram = v.conj().T @ v
        if np.abs(np.diag(gram) - 1.0).max() > UNIT_ATOL:
            raise OutOfRangeError("basis kets must have unit norm")
        if np.abs(gram - np.eye(self.d)).max() > ORTHO_ATOL:
            raise OutOfRangeError("basis kets must be pairwise orthogonal")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    def ket(self, j: int) -> np.ndarray:
        return self.vectors[:, j]


@dataclass(frozen=True)
class WeightedBasisSet:
    """Bases B_0, ..., B_{m-1} with weights summing to one."""

    bases: tuple[Basis, ...]
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bases", tuple(self.bases))
        w = np.asarray(self.weights, dtype=float)
        if w.size != len(self.bases):
            raise DimensionMismatchError("one weight per basis required")
        if np.any(w < 0):
            raise OutOfRangeError("weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_ATOL:
            raise OutOfRangeError(f"weights must sum to 1, got {w.sum():.15g}")
        dims = {b.d for b in self.bases}
        if len(dims) != 1:
            raise DimensionMismatchError(f"bases have mixed dimensions {sorted(dims)}")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return self.bases[0].d

    @property
    def m(self) -> int:
        return len(self.bases)


def standard_basis(d: int) -> Basis:
    """Coordinate basis {|j>}."""
    if d < 2:
        raise OutOfRangeError(f"dimension must be >= 2, got {d}")
    return Basis(d=d, vectors=np.eye(d, dtype=complex))


def fourier_basis(d: int) -> Basis:
    """Basis with ket j having components omega^{jk}/sqrt(d), omega = exp(2 pi i/d)."""
    if d < 2:
        raise OutOfRangeError(f"dimension must be >= 2, got {d}")
    j = np.arange(d)
    # reduce exponents mod d before exponentiating to keep phases exact
    expo = np.outer(j, j) % d
    return Basis(d=d, vectors=np.exp(2j * np.pi * expo / d) / math.sqrt(d))


def random_unbiased_basis(d: int, rng: np.random.Generator) -> Basis:
    """A random basis unbiased with the standard basis (phase-dressed Fourier)."""
    row = np.exp(2j * np.pi * rng.random(d))
    col = np.exp(2j * np.pi * rng.random(d))
    return Basis(d=d, vectors=row[:, None] * fourier_basis(d).vectors * col[None, :])


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    k = max(n, 2)
    while not is_prime(k):
        k += 1
    return k


def is_unbiased(b1: Basis, b2: Basis, tol: float = UNBIASED_ATOL) -> bool:
    """True iff every cross overlap satisfies | |<u|v>|^2 - 1/d | <= tol."""
    if b1.d != b2.d:
        raise DimensionMismatchError(f"dimensions differ: {b1.d} vs {b2.d}")
    overlap = np.abs(b1.vectors.conj().T @ b2.vectors) ** 2
    return bool(np.abs(overlap - 1.0 / b1.d).max() <= tol)


def maximally_entangled_ket(d: int) -> np.ndarray:
    """|Phi> = sum_j |jj> / sqrt(d) on C^{d^2}."""
    phi = np.zeros(d * d, dtype=complex)
    phi[np.arange(d) * (d + 1)] = 1.0 / math.sqrt(d)
    return phi


def verify_2design(
    basis_set: WeightedBasisSet, tol: float = DESIGN_ATOL
) -> tuple[bool, float]:
    """Check the weighted second-moment identity against (I + d|Phi><Phi|)/(d+1).

    The left side pairs each ket with its entrywise complex conjugate in the
    standard basis, sum_l w_l sum_j |psi_j psi_j*><psi_j psi_j*|, and is
    formed as one Gram product of the stacked pair vectors.  Returns
    (passed, max-norm residual); ``tol`` must be finite and >= 0.
    """
    if not 0.0 <= tol < math.inf:
        raise OutOfRangeError(f"tolerance must be finite and >= 0, got {tol}")
    d = basis_set.d
    pairs = (
        (np.einsum("aj,bj->abj", b.vectors, b.vectors.conj()).reshape(d * d, d), w)
        for b, w in zip(basis_set.bases, basis_set.weights)
    )
    lhs = linalg.weighted_gram(pairs, d * d)
    phi = maximally_entangled_ket(d)
    rhs = (np.eye(d * d, dtype=complex) + d * np.outer(phi, phi.conj())) / (d + 1)
    residual = float(np.abs(lhs - rhs).max())
    return residual <= tol, residual


def prime_mub_set(d: int) -> WeightedBasisSet:
    """Complete set of d+1 mutually unbiased bases for prime d, uniform weights.

    Basis 0 is the standard basis.  For d = 2 the other two bases are the
    eigenbases of the remaining Pauli directions; for odd prime d basis r has
    kets (1/sqrt(d)) sum_k omega^{r k^2 + j k} |k>.  ``verify_2design``
    certifies the set, which is a 2-design exactly when its bases are
    mutually unbiased.
    """
    if not is_prime(d):
        raise NotPrimeError(f"{d} is not prime; embed into a larger space instead")
    bases = [standard_basis(d)]
    if d == 2:
        s = 1.0 / math.sqrt(2.0)
        bases.append(Basis(d=2, vectors=np.array([[s, s], [s, -s]], dtype=complex)))
        bases.append(Basis(d=2, vectors=np.array([[s, s], [1j * s, -1j * s]])))
    else:
        k = np.arange(d)
        for r in range(1, d + 1):
            cols = np.empty((d, d), dtype=complex)
            for j in range(d):
                expo = (r * k * k + j * k) % d
                cols[:, j] = np.exp(2j * np.pi * expo / d)
            bases.append(Basis(d=d, vectors=cols / math.sqrt(d)))
    return WeightedBasisSet(bases=tuple(bases), weights=np.full(d + 1, 1.0 / (d + 1)))


def min_design_size(d: int) -> int:
    """Smallest number of bases for which the phase-basis design exists."""
    return math.ceil(3 * (d - 1) ** 2 / 4) + 1


def roy_scott_set(d: int, m: int | None = None) -> WeightedBasisSet:
    """Weighted 2-design of m bases: the standard basis plus m-1 phase bases.

    Basis l >= 1 has kets (1/sqrt(d)) sum_k exp(i theta_{ljk}) |k> with
    theta_{ljk} = 2 pi [jk/d + l*binom(k,2)/(m-1)], carrying weight
    d/[(m-1)(d+1)]; the standard basis carries weight 1/(d+1).  Requires
    m >= ceil(3(d-1)^2/4) + 1 and d >= 3: at d = 2 the quadratic phase term
    vanishes for every k, all phase bases collapse onto the Fourier basis,
    and no 2-design can result, so that case is rejected.
    """
    if d == 2:
        raise DimensionTooSmallError(
            "phase-basis design degenerates at d = 2; use the complete MUB set"
        )
    if d < 2:
        raise OutOfRangeError(f"dimension must be >= 2, got {d}")
    bound = min_design_size(d)
    if m is None:
        m = bound
    if m < bound:
        raise TooFewBasesError(f"need at least {bound} bases for d={d}, got {m}")
    k = np.arange(d)
    comb2 = (k * (k - 1)) // 2
    l = np.arange(1, m)
    # phases[l-1, k, j] = exp(2 pi i jk/d) * exp(2 pi i l binom(k,2)/(m-1))
    phase_l = np.exp(2j * np.pi * (np.outer(l, comb2) % (m - 1)) / (m - 1))
    phase_j = np.exp(2j * np.pi * (np.outer(k, k) % d) / d)
    phases = phase_j[None, :, :] * phase_l[:, :, None] / math.sqrt(d)
    bases = [standard_basis(d)] + [Basis(d=d, vectors=cols) for cols in phases]
    weights = np.full(m, d / ((m - 1) * (d + 1)))
    weights[0] = 1.0 / (d + 1)
    return WeightedBasisSet(bases=tuple(bases), weights=weights)
