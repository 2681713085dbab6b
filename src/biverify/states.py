"""Target states in Schmidt form, density operators, noise, and fidelity."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    NegativeCoefficientError,
    OutOfRangeError,
    ZeroVectorError,
    _integer_arg,
)

NORM_ATOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
# support weights below the smallest normal double lose the unit conditional ket
SUPPORT_CUTOFF = np.finfo(float).tiny


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


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A dim x dim density matrix (Hermitian, unit trace, PSD within tolerance)."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected a {self.dim}x{self.dim} matrix, got {m.shape}"
            )
        m = linalg.require_hermitian(m)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise OutOfRangeError(f"trace must be 1, got {tr:.12g}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -PSD_ATOL:
            raise OutOfRangeError(f"smallest eigenvalue {lo:.3e} is below -{PSD_ATOL:.0e}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def density_operator(matrix) -> DensityOperator:
    """Validate an arbitrary matrix as a density operator."""
    m = linalg.as_matrix(matrix)
    return DensityOperator(dim=m.shape[0], matrix=m)


def make_schmidt_state(raw, d: int | None = None) -> SchmidtState:
    """Build a SchmidtState from raw non-negative amplitudes.

    The amplitudes are sorted in decreasing order and L2-normalized; exact
    zeros are preserved.  They are first scaled by the power of two that
    brings the largest into [1/2, 1), which is exact, so the square sum
    neither overflows nor underflows and a finite input keeps its bits.
    """
    c = linalg.real_array(raw, "amplitudes")
    if c.ndim != 1:
        raise DimensionMismatchError("amplitudes must be a flat list")
    if d is None:
        d = c.size
    if c.size != d:
        raise DimensionMismatchError(f"expected {d} amplitudes, got {c.size}")
    if not np.isfinite(c).all():
        raise OutOfRangeError("amplitudes must be finite")
    if np.any(c < 0):
        raise NegativeCoefficientError("amplitudes must be >= 0")
    c = np.ldexp(c, -np.frexp(c.max(initial=0.0))[1])
    norm = float(np.linalg.norm(c))
    if norm == 0.0:
        raise ZeroVectorError("amplitudes are all zero")
    c = np.sort(c)[::-1] / norm
    return SchmidtState(d=int(d), coeffs=c)


def two_qubit_state(theta: float) -> SchmidtState:
    """Two-qubit target cos(theta)|00> + sin(theta)|11| for 0 < theta < pi/2."""
    if not 0.0 < theta < math.pi / 2:
        raise OutOfRangeError(f"theta must be in (0, pi/2), got {theta}")
    return make_schmidt_state([math.cos(theta), math.sin(theta)])


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
    return DensityOperator(dim=state.d, matrix=np.diag(state.coeffs**2).astype(complex))


def fidelity(rho: DensityOperator, state: SchmidtState) -> float:
    """<Psi| rho |Psi> for the target state."""
    if rho.dim != state.dim:
        raise DimensionMismatchError(
            f"density operator dim {rho.dim} != target dim {state.dim}"
        )
    psi = state_vector(state)
    val = complex(psi.conj() @ rho.matrix @ psi)
    if abs(val.imag) > 1e-10:
        raise OutOfRangeError(f"fidelity has imaginary part {val.imag:.3e}")
    return float(val.real)


def depolarize(state: SchmidtState, lam: float) -> DensityOperator:
    """Depolarized target (1-lam)|Psi><Psi| + lam*I/D; fidelity (1-lam) + lam/D."""
    if not 0.0 <= lam <= 1.0:
        raise OutOfRangeError(f"depolarizing weight must be in [0, 1], got {lam}")
    dd = state.dim
    m = (1.0 - lam) * target_projector(state) + lam * np.eye(dd, dtype=complex) / dd
    return DensityOperator(dim=dd, matrix=m)


def embed_state(state: SchmidtState, d_prime: int) -> SchmidtState:
    """Pad the Schmidt coefficients with zeros up to local dimension d_prime."""
    d_prime = _integer_arg("target dimension", d_prime, state.d)
    c = np.zeros(d_prime)
    c[: state.d] = state.coeffs
    return SchmidtState(d=d_prime, coeffs=c)


def embed_density(rho: DensityOperator, d_prime: int) -> DensityOperator:
    """Embed a d^2-dimensional state into C^{d'^2}, mapping |jk> to |jk>."""
    d = math.isqrt(rho.dim)
    if d * d != rho.dim:
        raise DimensionMismatchError(f"dimension {rho.dim} is not a perfect square")
    d_prime = _integer_arg("target dimension", d_prime, d)
    idx = (np.arange(d)[:, None] * d_prime + np.arange(d)[None, :]).ravel()
    out = np.zeros((d_prime * d_prime, d_prime * d_prime), dtype=complex)
    out[np.ix_(idx, idx)] = rho.matrix
    return DensityOperator(dim=d_prime * d_prime, matrix=out)


def random_state_at_fidelity(
    state: SchmidtState, fid: float, rng: np.random.Generator
) -> DensityOperator:
    """A random rank-2 state with fidelity exactly `fid` to the target.

    Mixes the target projector with a random pure state drawn orthogonal to
    the target.
    """
    if not 0.0 <= fid <= 1.0:
        raise OutOfRangeError(f"fidelity must be in [0, 1], got {fid}")
    dd = state.dim
    psi = state_vector(state)
    chi = rng.standard_normal(dd) + 1j * rng.standard_normal(dd)
    chi -= psi * (psi.conj() @ chi)
    chi /= np.linalg.norm(chi)
    m = fid * np.outer(psi, psi.conj()) + (1.0 - fid) * np.outer(chi, chi.conj())
    return DensityOperator(dim=dd, matrix=m)


def worst_case_state(strategy, eps: float) -> DensityOperator:
    """The fidelity-(1-eps) state with the largest average pass probability.

    Mixes the strategy's target (embedded, for kind II at non-prime d) with
    its ``beta_vector``, a second-eigenvalue eigenvector of the verification
    operator orthogonal to the target, so that tr(Omega sigma) = 1 - nu*eps
    is attained exactly.  Solves no eigenproblem: the build kept the vector.
    """
    if not 0.0 <= eps <= 1.0:
        raise OutOfRangeError(f"infidelity must be in [0, 1], got {eps}")
    psi = state_vector(strategy.state)
    chi = strategy.beta_vector
    m = (1.0 - eps) * np.outer(psi, psi.conj()) + eps * np.outer(chi, chi.conj())
    return DensityOperator(dim=strategy.state.dim, matrix=m)
