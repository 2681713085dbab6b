"""Measurement bases and weighted basis sets.

Provides the standard and Fourier bases, complete sets of mutually unbiased
bases (MUBs) for prime dimensions, and the weighted phase-basis designs of
Roy and Scott, together with numerical checks of unbiasedness and of the
2-design second-moment identity.

Both design families are phase-dressed Fourier bases diag(row) F by their
formulas (Wootters and Fields, 1989; Roy and Scott, 2007).  ``_design``
picks the design for (d, m) and holds its table of integer root-of-unity
exponents; the constructors, ``check-design`` and a build read it.

Each fact about a construction is certified in one place.  ``Basis`` checks
that its kets are orthonormal.  A built-in design's 2-design identity is
certified exactly from its integer table (``_Design.residual``), once by a
strategy build and once by the ``check-design`` command; the design test
average d/(d+1) Pi a build relies on follows for every target.  The dense
``verify_2design`` serves any weighted basis set and the tests.  For d+1
bases with uniform weights the identity holds exactly when the bases are
mutually unbiased (Klappenecker and Roetteler, 2005), so the MUB sets need
no separate pairwise check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    NotPrimeError,
    OutOfRangeError,
    TooFewBasesError,
    _integer_arg,
)

ORTHO_ATOL = 1e-10
UNIT_ATOL = 1e-12
WEIGHT_ATOL = 1e-12
UNBIASED_ATOL = 1e-10
# max-norm residual up to which the 2-design second-moment identity counts
# as holding
DESIGN_ATOL = 1e-10


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
    d = _integer_arg("dimension", d, 2)
    return Basis(d=d, vectors=np.eye(d, dtype=complex))


def _phases(l, e, modulus: int) -> np.ndarray:
    """The table zeta^{l_i e_j}, zeta = exp(2 pi i/modulus), read from the
    roots of unity; an impossible table is refused before any temporary."""
    table = np.empty((len(l), len(e)), dtype=complex)
    roots = np.exp(2j * np.pi * np.arange(modulus) / modulus)
    return np.take(roots, np.outer(l, e) % modulus, out=table)


def fourier_basis(d: int) -> Basis:
    """Basis with ket j having components omega^{jk}/sqrt(d), omega = exp(2 pi i/d)."""
    d = _integer_arg("dimension", d, 2)
    return Basis(d=d, vectors=_phases(range(d), range(d), d) / math.sqrt(d))


def random_unbiased_basis(d: int, rng: np.random.Generator) -> Basis:
    """A random basis unbiased with the standard basis (phase-dressed Fourier)."""
    d = _integer_arg("dimension", d, 2)
    row = np.exp(2j * np.pi * rng.random(d))
    col = np.exp(2j * np.pi * rng.random(d))
    return Basis(d=d, vectors=row[:, None] * fourier_basis(d).vectors * col[None, :])


def is_prime(n: int) -> bool:
    n = _integer_arg("n", n, 0)
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
    k = max(_integer_arg("n", n, 0), 2)
    while not is_prime(k):
        k += 1
    return k


def is_unbiased(b1: Basis, b2: Basis, tol: float = UNBIASED_ATOL) -> bool:
    """True iff every cross overlap satisfies | |<u|v>|^2 - 1/d | <= tol;
    ``tol`` must be finite and >= 0."""
    _check_tolerance(tol)
    if b1.d != b2.d:
        raise DimensionMismatchError(f"dimensions differ: {b1.d} vs {b2.d}")
    overlap = np.abs(b1.vectors.conj().T @ b2.vectors) ** 2
    return bool(np.abs(overlap - 1.0 / b1.d).max() <= tol)


def _check_tolerance(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise OutOfRangeError(f"tolerance must be finite and >= 0, got {tol}")


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
    _check_tolerance(tol)
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
    kets (1/sqrt(d)) sum_k omega^{r k^2 + j k} |k>.  ``_Design.residual``
    certifies the set, which is a 2-design exactly when its bases are
    mutually unbiased.
    """
    d = _integer_arg("dimension", d, 2)
    if not is_prime(d):
        raise NotPrimeError(f"{d} is not prime; embed into a larger space instead")
    return _design(d).basis_set


def min_design_size(d: int) -> int:
    """Smallest number of bases for which the phase-basis design exists."""
    d = _integer_arg("dimension", d, 2)
    return (3 * (d - 1) ** 2 + 3) // 4 + 1


def roy_scott_set(d: int, m: int | None = None) -> WeightedBasisSet:
    """Weighted 2-design of m bases: the standard basis plus m-1 phase bases.

    Basis l >= 1 has kets (1/sqrt(d)) sum_k exp(i theta_{ljk}) |k> with
    theta_{ljk} = 2 pi [jk/d + l*binom(k,2)/(m-1)], carrying weight
    d/[(m-1)(d+1)]; the standard basis carries weight 1/(d+1).  Requires
    m >= ceil(3(d-1)^2/4) + 1 and d >= 3: at d = 2 the quadratic phase term
    vanishes for every k, all phase bases collapse onto the Fourier basis,
    and no 2-design can result, so that case is rejected.
    """
    d = _integer_arg("dimension", d, 2)
    if d == 2:
        raise DimensionTooSmallError(
            "phase-basis design degenerates at d = 2; use the complete MUB set"
        )
    return _design(d, min_design_size(d) if m is None else m).basis_set


@dataclass(frozen=True, eq=False)
class _Design:
    """A built-in design as its integer table: basis 0 is the standard basis,
    each l in the contiguous ``multipliers`` gives diag(row_l) F, F the
    Fourier basis, row_l[a] = zeta^{l e(a)} with zeta = exp(2 pi i/M), e =
    ``exponents`` and M = ``modulus``.  ``name`` is for ``check-design``."""

    name: str
    exponents: np.ndarray
    modulus: int
    multipliers: range

    @cached_property
    def rows(self) -> np.ndarray:
        return _phases(self.multipliers, self.exponents, self.modulus)

    @cached_property
    def weights(self) -> np.ndarray:
        """1/(d+1) for the standard basis, d/(n(d+1)) for each phase basis."""
        d, n = self.exponents.size, len(self.multipliers)
        return np.concatenate(([1.0 / (d + 1)], np.full(n, d / (n * (d + 1)))))

    @cached_property
    def basis_set(self) -> WeightedBasisSet:
        """The design's bases, every phase basis from one vectorized product."""
        d = self.exponents.size
        kets = _phases(range(d), range(d), d)[None, :, :] * self.rows[:, :, None]
        kets /= math.sqrt(d)
        return WeightedBasisSet(
            bases=(standard_basis(d), *(Basis(d=d, vectors=v) for v in kets)),
            weights=self.weights,
        )

    def residual(self) -> float:
        """Max-norm residual of the 2-design identity, decided exactly from
        the integer table in O(d^2 log d) time.

        The second moment maps |ab> only into the class delta = a - b mod d.
        Its entry (a, b != a) in class delta != 0, in the kets |a, a-delta>,
        is (w/d) sum_l zeta^{l x}, x = g(a) - g(b), g(a) = e(a) - e(a-delta),
        w the phase weight; the rest matches (I + d|Phi><Phi|)/(d+1) for any
        table.  For n contiguous l the sum vanishes iff x != 0 and n x = 0
        mod M.  So this is 0.0 if every g is injective mod M and constant mod
        M/gcd(n, M), else 1/(d+1), the residual of any failing n = M table.
        """
        e, modulus = self.exponents, self.modulus
        period = modulus // math.gcd(len(self.multipliers), modulus)
        for delta in range(1, e.size):
            g = np.sort((e - np.roll(e, delta)) % modulus)
            if np.any(g[1:] == g[:-1]) or np.any(g % period != g[0] % period):
                return 1.0 / (e.size + 1)
        return 0.0


def _design(d: int, m: int | None = None) -> _Design:
    """The built-in design for (d, m): the complete MUB set when d is prime
    and m is None (``prime_mub_set``: e(a) = a^2 mod d, l = 1..d; at d = 2,
    e = (0, 1) mod 4, l = 0, 1), the Roy-Scott design of m bases otherwise
    (``roy_scott_set``: e(a) = C(a, 2) mod m-1, l = 1..m-1, m defaulting to
    ``min_design_size(d)``).  At d = 2 m is refused."""
    d = _integer_arg("dimension", d, 2)
    a = np.arange(d)
    if m is None and is_prime(d):
        table = (a, 4, range(2)) if d == 2 else (a * a % d, d, range(1, d + 1))
        return _Design(f"complete MUB set d={d}", *table)
    if d == 2:
        raise OutOfRangeError(
            "the design size m does not apply at d = 2, which always uses the "
            "complete MUB set"
        )
    bound = min_design_size(d)
    m = bound if m is None else _integer_arg("design size m", m, 1)
    if m < bound:
        raise TooFewBasesError(f"need at least {bound} bases for d={d}, got {m}")
    return _Design(
        f"phase-basis design d={d} m={m}", a * (a - 1) // 2 % (m - 1), m - 1, range(1, m)
    )
