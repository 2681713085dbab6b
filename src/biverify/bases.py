"""Measurement bases and weighted basis sets.

Provides the standard and Fourier bases, complete sets of mutually unbiased
bases (MUBs) for prime dimensions, and the weighted phase-basis designs of
Roy and Scott, together with numerical checks of unbiasedness and of the
2-design second-moment identity.

A built-in design is its integer table (``designs._design``), certified
exactly from that table (``designs._Design.residual``) with no numpy; this
module forms the table's numpy forms, its complex rows (``_rows``), weights
(``_weights``) and bases (``_basis_set``), and re-exports the primality
helpers and the design bounds from ``designs``.

Each fact about a construction is certified in one place.  ``Basis`` checks
that its kets are orthonormal.  A built-in design's 2-design identity is
certified exactly from its integer table, once by a strategy's scalar record
(``analyze`` and every build) and once by the ``check-design`` command; the
design test average d/(d+1) Pi a build relies on follows for every target.
The dense ``verify_2design`` serves any weighted basis set and the tests.
For d+1 bases with uniform weights the identity holds exactly when the
bases are mutually unbiased (Klappenecker and Roetteler, 2005), so the MUB
sets need no separate pairwise check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
# is_prime, next_prime, min_design_size and DESIGN_ATOL stay importable
# from here
from .designs import (
    DESIGN_ATOL,
    _MAX_DIMENSION,
    _Design,
    _design,
    is_prime,
    min_design_size,
    next_prime,
)
from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    NotPrimeError,
    OutOfRangeError,
    _integer_arg,
    _real_arg,
)

ORTHO_ATOL = 1e-10
UNIT_ATOL = 1e-12
WEIGHT_ATOL = 1e-12
UNBIASED_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class Basis:
    """An orthonormal basis of C^d; column j of ``vectors`` is ket j."""

    d: int
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _integer_arg("dimension", self.d, 1))
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


@dataclass(frozen=True, eq=False)
class WeightedBasisSet:
    """Bases B_0, ..., B_{m-1} with weights summing to one."""

    bases: tuple[Basis, ...]
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bases", tuple(self.bases))
        w = linalg.real_array(self.weights, "weights")
        if w.size != len(self.bases):
            raise DimensionMismatchError("one weight per basis required")
        if np.any(w < 0):
            raise OutOfRangeError("weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_ATOL:
            raise OutOfRangeError(f"weights must sum to 1, got {w.sum():.15g}")
        dims = {b.d for b in self.bases}
        if len(dims) != 1:
            raise DimensionMismatchError(f"bases have mixed dimensions {sorted(dims)}")
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
    d = _integer_arg("dimension", d, 2, _MAX_DIMENSION)
    return Basis(d=d, vectors=np.eye(d, dtype=complex))


def _phases(l, e, modulus: int) -> np.ndarray:
    """The table zeta^{l_i e_j}, zeta = exp(2 pi i/modulus), read from the
    roots of unity; an impossible table is refused before any temporary."""
    table = np.empty((len(l), len(e)), dtype=complex)
    roots = np.exp(2j * np.pi * np.arange(modulus) / modulus)
    return np.take(roots, np.outer(l, e) % modulus, out=table)


def fourier_basis(d: int) -> Basis:
    """Basis with ket j having components omega^{jk}/sqrt(d), omega = exp(2 pi i/d)."""
    d = _integer_arg("dimension", d, 2, _MAX_DIMENSION)
    return Basis(d=d, vectors=_phases(range(d), range(d), d) / math.sqrt(d))


def random_unbiased_basis(d: int, rng: np.random.Generator) -> Basis:
    """A random basis unbiased with the standard basis (phase-dressed Fourier)."""
    d = _integer_arg("dimension", d, 2, _MAX_DIMENSION)
    row = np.exp(2j * np.pi * rng.random(d))
    col = np.exp(2j * np.pi * rng.random(d))
    return Basis(d=d, vectors=row[:, None] * fourier_basis(d).vectors * col[None, :])


def is_unbiased(b1: Basis, b2: Basis, tol: float = UNBIASED_ATOL) -> bool:
    """True iff every cross overlap satisfies | |<u|v>|^2 - 1/d | <= tol;
    ``tol`` must be finite and >= 0."""
    tol = _real_arg("tolerance", tol, 0.0, math.inf, hi_open=True)
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
    tol = _real_arg("tolerance", tol, 0.0, math.inf, hi_open=True)
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
    kets (1/sqrt(d)) sum_k omega^{r k^2 + j k} |k>.
    ``designs._Design.residual`` certifies the set, which is a 2-design
    exactly when its bases are mutually unbiased.
    """
    d = _integer_arg("dimension", d, 2, _MAX_DIMENSION)
    if not is_prime(d):
        raise NotPrimeError(f"{d} is not prime; embed into a larger space instead")
    return _basis_set(_design(d))


def roy_scott_set(d: int, m: int | None = None) -> WeightedBasisSet:
    """Weighted 2-design of m bases: the standard basis plus m-1 phase bases.

    Basis l >= 1 has kets (1/sqrt(d)) sum_k exp(i theta_{ljk}) |k> with
    theta_{ljk} = 2 pi [jk/d + l*binom(k,2)/(m-1)], carrying weight
    d/[(m-1)(d+1)]; the standard basis carries weight 1/(d+1).  Requires
    m >= ceil(3(d-1)^2/4) + 1 and d >= 3: at d = 2 the quadratic phase term
    vanishes for every k, all phase bases collapse onto the Fourier basis,
    and no 2-design can result, so that case is rejected.
    """
    d = _integer_arg("dimension", d, 2, _MAX_DIMENSION)
    if d == 2:
        raise DimensionTooSmallError(
            "phase-basis design degenerates at d = 2; use the complete MUB set"
        )
    return _basis_set(_design(d, min_design_size(d) if m is None else m))


def _rows(design: _Design) -> np.ndarray:
    """The design's (n, d) complex row table zeta^{l e(a)}, one row per
    multiplier l."""
    return _phases(design.multipliers, design.exponents, design.modulus)


def _weights(design: _Design) -> np.ndarray:
    """1/(d+1) for the standard basis, d/(n(d+1)) for each phase basis."""
    d, n = len(design.exponents), len(design.multipliers)
    return np.concatenate(([1.0 / (d + 1)], np.full(n, d / (n * (d + 1)))))


def _basis_set(design: _Design) -> WeightedBasisSet:
    """The design's bases, every phase basis from one vectorized product."""
    d = len(design.exponents)
    kets = _phases(range(d), range(d), d)[None, :, :] * _rows(design)[:, :, None]
    kets /= math.sqrt(d)
    return WeightedBasisSet(
        bases=(standard_basis(d), *(Basis(d=d, vectors=v) for v in kets)),
        weights=_weights(design),
    )
