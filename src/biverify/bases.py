"""Measurement bases and weighted basis sets.

Provides the standard and Fourier bases, complete sets of mutually unbiased
bases (MUBs) for prime dimensions, and the weighted phase-basis designs of
Roy and Scott, together with numerical checks of unbiasedness and of the
2-design second-moment identity.

Both design families are phase-dressed Fourier bases diag(row) F by their
formulas (Wootters and Fields, 1989; Roy and Scott, 2007).  ``_design``
picks the design for (d, m) and holds its row-phase table and weights; the
two constructors, the ``check-design`` command and a strategy build read it.

Each fact about a construction is certified in one place.  ``Basis`` checks
that its kets are orthonormal.  A built-in design's 2-design identity is
certified from its row-phase table (``_Design.residual``), once by a
strategy build and once by the ``check-design`` command; the design test
average d/(d+1) Pi a build relies on follows for every target.  The dense
``verify_2design`` serves any weighted basis set and the tests.  For d+1
bases with uniform weights the identity holds exactly when the bases are
mutually unbiased (Klappenecker and Roetteler, 2005), so the MUB sets need
no separate pairwise check.
"""
from __future__ import annotations

import math
import numbers
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

    def ket(self, j: int) -> np.ndarray:
        return self.vectors[:, j]


@dataclass(frozen=True, eq=False)
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
    d = _integer_arg("dimension", d, 2)
    return Basis(d=d, vectors=np.eye(d, dtype=complex))


def _fourier_phases(d: int) -> np.ndarray:
    """The d x d matrix of omega^{jk}, omega = exp(2 pi i/d)."""
    j = np.arange(d)
    # reduce exponents mod d before exponentiating to keep phases exact
    return np.exp(2j * np.pi * (np.outer(j, j) % d) / d)


def fourier_basis(d: int) -> Basis:
    """Basis with ket j having components omega^{jk}/sqrt(d), omega = exp(2 pi i/d)."""
    d = _integer_arg("dimension", d, 2)
    return Basis(d=d, vectors=_fourier_phases(d) / math.sqrt(d))


def random_unbiased_basis(d: int, rng: np.random.Generator) -> Basis:
    """A random basis unbiased with the standard basis (phase-dressed Fourier)."""
    d = _integer_arg("dimension", d, 2)
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


def _integer_arg(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """``value`` as a Python int in [``minimum``, ``maximum``]; bools and
    non-integers raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise OutOfRangeError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise OutOfRangeError(f"{name} must be <= {maximum}, got {value}")
    return int(value)


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
    kets (1/sqrt(d)) sum_k omega^{r k^2 + j k} |k>.  ``verify_2design``
    certifies the set, which is a 2-design exactly when its bases are
    mutually unbiased.
    """
    d = _integer_arg("dimension", d, 2)
    if not is_prime(d):
        raise NotPrimeError(f"{d} is not prime; embed into a larger space instead")
    return _design(d).basis_set


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
    d = _integer_arg("dimension", d, 2)
    if d == 2:
        raise DimensionTooSmallError(
            "phase-basis design degenerates at d = 2; use the complete MUB set"
        )
    return _design(d, min_design_size(d) if m is None else m).basis_set


@dataclass(frozen=True, eq=False)
class _Design:
    """A built-in design: basis 0 is the standard basis, basis l >= 1 is
    diag(``rows[l-1]``) F with F the Fourier basis, and basis l carries
    ``weights[l]``.  ``name`` describes the family for ``check-design``."""

    name: str
    rows: np.ndarray
    weights: np.ndarray

    @cached_property
    def basis_set(self) -> WeightedBasisSet:
        """The design's bases, every phase basis from one vectorized product."""
        d = self.rows.shape[1]
        kets = _fourier_phases(d)[None, :, :] * self.rows[:, :, None]
        kets /= math.sqrt(d)
        return WeightedBasisSet(
            bases=(standard_basis(d), *(Basis(d=d, vectors=v) for v in kets)),
            weights=self.weights,
        )

    def residual(self) -> float:
        """Max-norm residual of the 2-design identity, from the row table and
        the weights alone.

        The second moment of a phase basis diag(row) F, like that of the
        standard basis, maps |ab> only into the shift class delta = a - b
        mod d.  On class delta, in the kets |a, a-delta>, the weighted second
        moment is S = (1/d) W diag(w_1..w_{m-1}) W^dagger, plus w_0 I on class
        0, with W[a, l] = row_l[a] conj(row_l[a-delta]), and the target
        (I + d|Phi><Phi|)/(d+1) is I/(d+1), plus J/(d+1) on class 0.  Both
        vanish outside the classes, so this is ``verify_2design``'s residual
        on ``basis_set`` up to round-off, in O(m d^3) time and O(m d) memory.
        """
        d = self.rows.shape[1]
        a = np.arange(d)
        weights = self.weights[1:] / d
        worst = []
        for delta in range(d):
            w = self.rows * self.rows[:, (a - delta) % d].conj()
            deviation = (w.T * weights) @ w.conj()
            deviation.flat[:: d + 1] -= 1.0 / (d + 1)
            if delta == 0:
                deviation.flat[:: d + 1] += self.weights[0]
                deviation -= 1.0 / (d + 1)
            worst.append(np.abs(deviation).max())
        return float(np.max(worst))  # NaN propagates, and fails the check


def _design(d: int, m: int | None = None) -> _Design:
    """The built-in design for (d, m): the complete MUB set when d is prime
    and m is None (``prime_mub_set``; at d = 2 the rows (1, 1) and (1, i)),
    the Roy-Scott design of m bases otherwise (``roy_scott_set``, m defaults
    to ``min_design_size(d)``).  At d = 2 only the MUB set exists, so m is
    refused there."""
    d = _integer_arg("dimension", d, 2)
    k = np.arange(d)
    if m is None and is_prime(d):
        if d == 2:
            rows = np.array([[1.0, 1.0], [1.0, 1j]])
        else:
            r = np.arange(1, d + 1)
            rows = np.exp(2j * np.pi * (np.outer(r, k * k) % d) / d)
        return _Design(f"complete MUB set d={d}", rows, np.full(d + 1, 1.0 / (d + 1)))
    if d == 2:
        raise OutOfRangeError(
            "the design size m does not apply at d = 2, which always uses the "
            "complete MUB set"
        )
    bound = min_design_size(d)
    m = bound if m is None else _integer_arg("design size m", m, 1)
    if m < bound:
        raise TooFewBasesError(f"need at least {bound} bases for d={d}, got {m}")
    l = np.arange(1, m)
    rows = np.exp(2j * np.pi * (np.outer(l, (k * (k - 1)) // 2) % (m - 1)) / (m - 1))
    weights = np.full(m, d / ((m - 1) * (d + 1)))
    weights[0] = 1.0 / (d + 1)
    return _Design(f"phase-basis design d={d} m={m}", rows, weights)
