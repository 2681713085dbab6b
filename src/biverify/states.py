"""Target states in Schmidt form, density operators, noise, and fidelity.

A density operator is held as its factors, a non-negative diagonal plus a
few kets (``DensityOperator``), never as a d^2 x d^2 matrix unless one is
read: the states built here (depolarized, worst-case, random rank-2,
embedded, reduced) write their factors down in closed form, and a dense
input is factored once by ``eigh``, where its PSD check happens.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, linalg
from .analysis import SUPPORT_CUTOFF
from .designs import _MAX_DIMENSION
from .errors import (
    DimensionMismatchError,
    NegativeCoefficientError,
    OutOfRangeError,
    _integer_arg,
    _real_arg,
)

NORM_ATOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class SchmidtState:
    """Bipartite pure state sum_j c_j |jj> on C^d x C^d.

    Coefficients are non-negative, sorted in decreasing order, and normalized
    to unit square sum.  Exact zeros are kept: they decide which outcomes a
    standard-basis test supports.
    """

    d: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = linalg.real_array(self.coeffs, "Schmidt coefficients")
        object.__setattr__(self, "d", _integer_arg("local dimension", self.d, 2))
        if c.shape != (self.d,):
            raise DimensionMismatchError(
                f"expected {self.d} coefficients, got shape {c.shape}"
            )
        if not np.isfinite(c).all():
            raise OutOfRangeError("Schmidt coefficients must be finite")
        if np.any(c < 0):
            raise NegativeCoefficientError("Schmidt coefficients must be >= 0")
        if np.any(np.diff(c) > 0):
            raise OutOfRangeError("Schmidt coefficients must be non-increasing")
        # a unit vector has no entry above 1; refusing one first keeps c @ c finite
        if c.max() > 1.0 + NORM_ATOL or abs(float(c @ c) - 1.0) > NORM_ATOL:
            raise OutOfRangeError("Schmidt coefficients must have unit square sum")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        """Total dimension D = d^2 of the joint space."""
        return self.d * self.d

    @property
    def is_entangled(self) -> bool:
        """Schmidt rank >= 2 with outcome 1 supported: c_1^2 above
        ``SUPPORT_CUTOFF``, so a standard-basis test sees outcome 1.  Tested on
        c_1, not as c_0 < 1: c_0 rounds to 1 for c_1 below about 1e-8."""
        return bool(self.coeffs[1] ** 2 > SUPPORT_CUTOFF)


class DensityOperator:
    """A dim x dim density operator, held as its factors

        sigma = diag(g) + sum_r |y_r><y_r|,  g >= 0,

    so that fidelities, the Monte Carlo tables and tr(Omega sigma) are read
    off the kets y_r (columns of ``_kets``) and the diagonal g (``_diagonal``)
    without a dim x dim matrix.  ``DensityOperator(dim, matrix)`` checks a
    dense matrix (square, finite, Hermitian, unit trace, smallest eigenvalue
    not below -``PSD_ATOL``) and factors it by one ``eigh`` on the rows and
    columns that are not exactly zero, n of them, keeping y_r = sqrt(w_r)
    x_r for the eigenvalues w_r above the rank tolerance max(w) n eps
    (numpy's ``matrix_rank`` rule): the rest is rounding, or
    a negative part the PSD tolerance admits, so the state held is the
    input to within ``PSD_ATOL``.  The package's own states
    (``depolarize``, ``random_state_at_fidelity``, ``worst_case_state``,
    ``embed_density``, ``reduced_state_b``) give their factors in closed
    form, and their only check is g >= 0 and the trace.  ``matrix`` is
    formed from the factors on first read.  Immutable.
    """

    def __init__(self, dim: int, matrix):
        dim = _integer_arg("dimension", dim, 1)
        m = linalg.as_matrix(matrix)
        if m.shape != (dim, dim):
            raise DimensionMismatchError(f"expected a {dim}x{dim} matrix, got {m.shape}")
        m = linalg.require_hermitian(m)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise OutOfRangeError(f"trace must be 1, got {tr:.12g}")
        # a row and column of exact zeros lie in the kernel: the eigensolve
        # runs on the rest, so the kets vanish there exactly
        live = np.flatnonzero((m != 0).any(axis=0) | (m != 0).any(axis=1))
        w, v = np.linalg.eigh(m if live.size == dim else m[np.ix_(live, live)])
        if w[0] < -PSD_ATOL:
            raise OutOfRangeError(f"smallest eigenvalue {w[0]:.3e} is below -{PSD_ATOL:.0e}")
        kept = w > w[-1] * live.size * np.finfo(float).eps
        if live.size == dim:
            kets = v if kept.all() else v[:, kept]
        else:
            kets = np.zeros((dim, int(kept.sum())), dtype=complex)
            kets[live] = v[:, kept]
        kets *= np.sqrt(w[kept])
        self._set(dim, np.zeros(dim), kets)

    @classmethod
    def _factored(cls, dim: int, diagonal: np.ndarray, kets: np.ndarray) -> "DensityOperator":
        """diag(``diagonal``) + sum_r |y_r><y_r| over the columns y_r of
        ``kets``, after checking that the diagonal is non-negative and the
        trace is 1."""
        if not np.all(diagonal >= 0.0):
            raise OutOfRangeError("the diagonal part of a density operator must be >= 0")
        tr = float(diagonal.sum() + np.vdot(kets, kets).real)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise OutOfRangeError(f"trace must be 1, got {tr:.12g}")
        rho = object.__new__(cls)
        rho._set(dim, diagonal, kets)
        return rho

    def _set(self, dim, diagonal, kets) -> None:
        diagonal.flags.writeable = kets.flags.writeable = False
        for name, value in (("dim", dim), ("_diagonal", diagonal), ("_kets", kets)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_matrix", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"DensityOperator is immutable: cannot set {name!r}")

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim matrix, formed from the factors on first read."""
        if self._matrix is None:
            m = self._kets @ self._kets.conj().T
            m[np.diag_indices(self.dim)] += self._diagonal
            m.flags.writeable = False
            object.__setattr__(self, "_matrix", m)
        return self._matrix


def _density_arg(name: str, value) -> DensityOperator:
    """``value`` if it is a ``DensityOperator``, else OutOfRangeError."""
    if not isinstance(value, DensityOperator):
        raise OutOfRangeError(f"{name} must be a DensityOperator, got {type(value).__name__}")
    return value


def density_operator(matrix) -> DensityOperator:
    """Validate an arbitrary matrix as a density operator."""
    m = linalg.as_matrix(matrix)
    return DensityOperator(dim=m.shape[0], matrix=m)


def make_schmidt_state(raw, d: int | None = None) -> SchmidtState:
    """Build a SchmidtState from raw non-negative amplitudes.

    The amplitudes are sorted in decreasing order and L2-normalized by
    ``analysis._unit_amplitudes``, the normalizer ``analyze`` reads too;
    exact zeros are preserved.
    """
    c = linalg.real_array(raw, "amplitudes")
    if c.ndim != 1:
        raise DimensionMismatchError("amplitudes must be a flat list")
    c = analysis._unit_amplitudes(c.tolist(), d)
    return SchmidtState(d=len(c), coeffs=c)


def two_qubit_state(theta: float) -> SchmidtState:
    """Two-qubit target cos(theta)|00> + sin(theta)|11| for 0 < theta < pi/2."""
    return SchmidtState(d=2, coeffs=analysis._two_qubit_amplitudes(theta))


def state_vector(state: SchmidtState) -> np.ndarray:
    """The ket of the target state in C^{d^2}; component c_j at index j*d + j."""
    d = state.d
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * (d + 1)] = state.coeffs
    return v


def target_projector(state: SchmidtState) -> np.ndarray:
    psi = state_vector(state)
    return np.outer(psi, psi.conj())


def reduced_state_b(state: SchmidtState) -> DensityOperator:
    """Reduced state of the second party: diag(c_0^2, ..., c_{d-1}^2)."""
    return DensityOperator._factored(state.d, state.coeffs**2, np.zeros((state.d, 0), complex))


def fidelity(rho: DensityOperator, state: SchmidtState) -> float:
    """<Psi| rho |Psi> for the target state, read off rho's factors."""
    rho = _density_arg("rho", rho)
    if rho.dim != state.dim:
        raise DimensionMismatchError(
            f"density operator dim {rho.dim} != target dim {state.dim}"
        )
    jj = np.arange(state.d) * (state.d + 1)
    c = state.coeffs
    return float(rho._diagonal[jj] @ c**2 + np.sum(np.abs(c @ rho._kets[jj]) ** 2))


def depolarize(state: SchmidtState, lam: float) -> DensityOperator:
    """Depolarized target (1-lam)|Psi><Psi| + lam*I/D; fidelity (1-lam) + lam/D."""
    lam = _real_arg("depolarizing weight", lam, 0.0, 1.0)
    dd = state.dim
    kets = math.sqrt(1.0 - lam) * state_vector(state)[:, None]
    return DensityOperator._factored(dd, np.full(dd, lam / dd), kets)


def embed_state(state: SchmidtState, d_prime: int) -> SchmidtState:
    """Pad the Schmidt coefficients with zeros up to local dimension d_prime."""
    d_prime = _integer_arg("target dimension", d_prime, state.d, _MAX_DIMENSION)
    c = np.zeros(d_prime)
    c[: state.d] = state.coeffs
    return SchmidtState(d=d_prime, coeffs=c)


def embed_density(rho: DensityOperator, d_prime: int) -> DensityOperator:
    """Embed a d^2-dimensional state into C^{d'^2}, mapping |jk> to |jk>:
    its diagonal and kets are padded with zeros."""
    rho = _density_arg("rho", rho)
    d = math.isqrt(rho.dim)
    if d * d != rho.dim:
        raise DimensionMismatchError(f"dimension {rho.dim} is not a perfect square")
    d_prime = _integer_arg("target dimension", d_prime, d, _MAX_DIMENSION)
    idx = (np.arange(d)[:, None] * d_prime + np.arange(d)[None, :]).ravel()
    diagonal = np.zeros(d_prime * d_prime)
    diagonal[idx] = rho._diagonal
    kets = np.zeros((d_prime * d_prime, rho._kets.shape[1]), dtype=complex)
    kets[idx] = rho._kets
    return DensityOperator._factored(d_prime * d_prime, diagonal, kets)


def _pure_mixture(dim: int, weights, kets) -> DensityOperator:
    """sum_r weights[r] |x_r><x_r| over the columns x_r of ``kets``, for
    weights in [0, 1]."""
    return DensityOperator._factored(dim, np.zeros(dim), kets * np.sqrt(weights))


def random_state_at_fidelity(
    state: SchmidtState, fid: float, rng: np.random.Generator
) -> DensityOperator:
    """A random rank-2 state with fidelity exactly `fid` to the target.

    Mixes the target projector with a random pure state drawn orthogonal to
    the target.
    """
    fid = _real_arg("fidelity", fid, 0.0, 1.0)
    dd = state.dim
    psi = state_vector(state)
    chi = rng.standard_normal(dd) + 1j * rng.standard_normal(dd)
    chi -= psi * (psi.conj() @ chi)
    chi /= np.linalg.norm(chi)
    return _pure_mixture(dd, [fid, 1.0 - fid], np.stack([psi, chi], axis=1))


def worst_case_state(strategy, eps: float) -> DensityOperator:
    """The fidelity-(1-eps) state with the largest average pass probability.

    Mixes the strategy's target (embedded, for kind II at non-prime d) with
    its ``beta_vector``, a second-eigenvalue eigenvector of the verification
    operator orthogonal to the target, so that tr(Omega sigma) = 1 - nu*eps
    is attained exactly.  Solves no eigenproblem: the build kept the vector.
    """
    eps = _real_arg("infidelity", eps, 0.0, 1.0)
    psi = state_vector(strategy.state)
    kets = np.stack([psi, strategy.beta_vector], axis=1)
    return _pure_mixture(strategy.state.dim, [1.0 - eps, eps], kets)
