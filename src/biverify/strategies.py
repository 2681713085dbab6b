"""Test operators and verification strategies built from local measurements.

A test is either a conditional projector (one party measures a basis, the
other checks an outcome-dependent ket) or a randomized diagonal test (both
parties measure the standard basis and the verifier accepts outcome (j, k)
with a tabulated probability).  A strategy is a convex mixture of tests; its
verification operator's second eigenvalue beta controls how fast states far
from the target are rejected, through the spectral gap nu = 1 - beta.

Six built-in strategies are provided:

==== =========================================================================
I    standard test mixed with one basis unbiased to it (two tests)
II   standard test plus a complete MUB set (prime d; auto-embedded otherwise)
III  standard test plus a weighted phase-basis 2-design (any d >= 3)
IV   two-way variant of II/III, averaging over which party measures first
V    one-way homogeneous: randomized diagonal test plus the one-way design
VI   two-way homogeneous: symmetrized diagonal test plus the two-way design
==== =========================================================================

V and VI have two-valued spectra {1, p}, which makes the pass probability an
affine function of fidelity and suits adversarially prepared states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from . import linalg
from .bases import (
    DESIGN_ATOL,
    Basis,
    WeightedBasisSet,
    fourier_basis,
    is_prime,
    is_unbiased,
    next_prime,
    prime_mub_set,
    roy_scott_set,
    standard_basis,
)
from .errors import (
    DesignMismatchError,
    DimensionMismatchError,
    OutOfRangeError,
    SeparableStateError,
    TopEigenvalueError,
)
from .states import SchmidtState, embed_state, state_vector, target_projector

SUPPORT_CUTOFF = 1e-12
PROJECTOR_ATOL = 1e-9
TARGET_PASS_ATOL = 1e-10
BETA_CROSSCHECK_ATOL = 1e-10
TOP_EIGENVALUE_ATOL = 1e-8

STRATEGY_KINDS = ("I", "II", "III", "IV", "V", "VI")


class Direction(str, Enum):
    """Which party measures first and communicates the outcome."""

    A_TO_B = "AtoB"
    B_TO_A = "BtoA"


@dataclass(frozen=True)
class ConditionalProjectorTest:
    """One conditional-projector test.

    The measuring party projects onto ``measured_basis``; on outcome j the
    other party checks the unit ket ``conditional_kets[:, j]`` (outcomes
    without target support reject outright).  The test is stored as these
    factors only: the projector it realizes on C^{d^2} is
    sum_j |u_j><u_j| x |v_j><v_j| over the supported outcomes (factors
    swapped for B -> A), and ``matrix`` builds it on first access.
    """

    direction: Direction
    measured_basis: Basis
    supported: np.ndarray
    conditional_kets: np.ndarray

    @property
    def d(self) -> int:
        return self.measured_basis.d

    def pair_vectors(self) -> np.ndarray:
        """Columns u_j x v_j (v_j x u_j for B -> A), one per supported outcome."""
        u = self.measured_basis.vectors[:, self.supported]
        v = self.conditional_kets[:, self.supported]
        first, second = (u, v) if self.direction is Direction.A_TO_B else (v, u)
        return np.einsum("aj,bj->abj", first, second).reshape(self.d * self.d, -1)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense d^2 x d^2 projector, built on first access."""
        x = self.pair_vectors()
        return _freeze(x @ x.conj().T)


@dataclass(frozen=True)
class RandomizedDiagonalTest:
    """Both parties measure the standard basis; outcome (j, k) is accepted
    with probability ``acceptance[j, k]``.  ``matrix`` builds the diagonal
    operator the test realizes on first access."""

    direction: Direction
    acceptance: np.ndarray

    @property
    def d(self) -> int:
        return self.acceptance.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense d^2 x d^2 diagonal operator, built on first access."""
        return _freeze(np.diag(self.acceptance.ravel()).astype(complex))


TestOperator = ConditionalProjectorTest | RandomizedDiagonalTest


@dataclass(frozen=True)
class Strategy:
    """A convex mixture of tests with its spectral data.

    ``omega`` is the weighted sum of the test operators, formed from their
    factors (for the design kinds, from one Gram product of the A -> B design
    tests and its party swap, so equal to the term-by-term sum up to
    round-off); ``beta`` is its second-largest eigenvalue and
    ``nu = 1 - beta`` the spectral gap.  ``p`` records the mixing probability
    of the standard/diagonal test for the built-in kinds (None for custom
    mixtures).
    """

    state: SchmidtState
    tests: tuple[tuple[float, TestOperator], ...]
    omega: np.ndarray
    beta: float
    nu: float
    label: str
    p: float | None = None


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def test_projector(
    state: SchmidtState, basis: Basis, direction: Direction = Direction.A_TO_B
) -> ConditionalProjectorTest:
    """Conditional-projector test from a measurement basis.

    For each outcome j with nonzero target support, the non-measuring party's
    conditional ket is the normalized partial inner product of the basis ket
    with the target.  The test is an orthogonal projector that the target
    passes with certainty; both facts are checked on the pair vectors
    x_j = u_j x v_j, without forming the d^2 x d^2 matrix: P = sum_j
    |x_j><x_j| is a projector iff the x_j are orthonormal, i.e. their Gram
    matrix (U^dagger U) o (V^dagger V) is the identity, and the target passes
    with probability sum_j |<x_j|Psi>|^2.
    """
    if basis.d != state.d:
        raise DimensionMismatchError(f"basis dim {basis.d} != state dim {state.d}")
    d = state.d
    v_tilde = state.coeffs[:, None] * basis.vectors.conj()
    weights = np.einsum("kj,kj->j", v_tilde.conj(), v_tilde).real
    supported = weights > SUPPORT_CUTOFF
    kets = np.zeros((d, d), dtype=complex)
    kets[:, supported] = v_tilde[:, supported] / np.sqrt(weights[supported])
    u = basis.vectors[:, supported]
    v = kets[:, supported]
    gram = (u.conj().T @ u) * (v.conj().T @ v)
    if np.abs(gram - np.eye(gram.shape[0])).max() > PROJECTOR_ATOL:
        raise DesignMismatchError("conditional test failed the projector check")
    # <u_j v_j|Psi> = sum_k c_k conj(u_kj) conj(v_kj); the same for B -> A
    amplitudes = np.einsum("k,kj,kj->j", state.coeffs, u.conj(), v.conj())
    pass_target = float(np.sum(np.abs(amplitudes) ** 2))
    if abs(pass_target - 1.0) > TARGET_PASS_ATOL:
        raise DesignMismatchError(
            f"target pass probability {pass_target:.12g} is not 1"
        )
    return ConditionalProjectorTest(
        direction=direction,
        measured_basis=basis,
        supported=_freeze(supported),
        conditional_kets=_freeze(kets),
    )


test_projector.__test__ = False  # keep pytest from collecting the imported name


def standard_test(state: SchmidtState) -> ConditionalProjectorTest:
    """Both parties measure the standard basis; pass on equal supported outcomes."""
    return test_projector(state, standard_basis(state.d))


def _diagonal_test(state: SchmidtState, acceptance: np.ndarray) -> RandomizedDiagonalTest:
    acceptance = np.asarray(acceptance, dtype=float)
    if acceptance.min() < -1e-12 or acceptance.max() > 1.0 + 1e-12:
        raise OutOfRangeError("acceptance probabilities must lie in [0, 1]")
    acceptance = np.clip(acceptance, 0.0, 1.0)
    return RandomizedDiagonalTest(direction=Direction.A_TO_B, acceptance=_freeze(acceptance))


def one_way_diagonal_test(state: SchmidtState, p: float) -> RandomizedDiagonalTest:
    """Randomized diagonal test whose off-diagonal acceptance tracks the
    non-measuring party's outcome: equal outcomes always pass, outcome pair
    (j, k) with j != k passes with probability 1 - (1/p - 1) c_k^2."""
    lo = float(state.coeffs[0] ** 2 / (1.0 + state.coeffs[0] ** 2))
    if not lo - 1e-12 <= p < 1.0:
        raise OutOfRangeError(
            f"mixing probability p={p} outside [{lo:.12g}, 1): acceptance "
            "probabilities would leave [0, 1]"
        )
    c2 = state.coeffs**2
    acceptance = 1.0 - (1.0 / p - 1.0) * np.tile(c2, (state.d, 1))
    np.fill_diagonal(acceptance, 1.0)
    return _diagonal_test(state, acceptance)


def two_way_diagonal_test(state: SchmidtState, p: float) -> RandomizedDiagonalTest:
    """Symmetrized randomized diagonal test: outcome pair (j, k) with j != k
    passes with probability 1 - (1/p - 1)(c_j^2 + c_k^2)/2."""
    c2 = state.coeffs**2
    lo = float((c2[0] + c2[1]) / (2.0 + c2[0] + c2[1]))
    if not lo - 1e-12 <= p < 1.0:
        raise OutOfRangeError(
            f"mixing probability p={p} outside [{lo:.12g}, 1): acceptance "
            "probabilities would leave [0, 1]"
        )
    pair_mean = 0.5 * np.add.outer(c2, c2)
    acceptance = 1.0 - (1.0 / p - 1.0) * pair_mean
    np.fill_diagonal(acceptance, 1.0)
    return _diagonal_test(state, acceptance)


def pi_operator(state: SchmidtState, direction: Direction = Direction.A_TO_B) -> np.ndarray:
    """Average of the non-standard design tests, in closed form.

    Equals |Psi><Psi| + I x rho_B - sum_k c_k^2 |kk><kk| for the one-way
    direction (the mirrored form for the other).
    """
    d = state.d
    c2 = state.coeffs**2
    # I x rho_B (rho_A x I for B -> A) is diagonal in the |jk> basis
    diagonal = np.tile(c2, d) if direction is Direction.A_TO_B else np.repeat(c2, d)
    diagonal[np.arange(d) * (d + 1)] -= c2
    return target_projector(state) + np.diag(diagonal)


def _mix(d: int, tests) -> np.ndarray:
    """sum_l q_l P_l over ``(q_l, test)`` pairs as one d^2 x d^2 matrix.

    The conditional tests enter through one chunked Gram product of their
    pair vectors, the randomized diagonal tests through the diagonal.
    """
    omega = linalg.weighted_gram(
        (
            (test.pair_vectors(), q)
            for q, test in tests
            if isinstance(test, ConditionalProjectorTest)
        ),
        d * d,
    )
    for q, test in tests:
        if isinstance(test, RandomizedDiagonalTest):
            omega.flat[:: d * d + 1] += q * test.acceptance.ravel()
    return omega


def _design_residual(state: SchmidtState, avg: np.ndarray, direction: Direction) -> float:
    """max-norm of ``avg`` - d/(d+1) * Pi, where ``avg`` = sum_l w_l P_l over
    one direction's design tests."""
    target = pi_operator(state, direction=direction) * state.d / (state.d + 1)
    return float(np.abs(avg - target).max())


def design_for_dimension(d: int, m: int | None = None) -> WeightedBasisSet:
    """Weighted basis set suitable for the design strategies: the complete
    MUB set when d is prime, the phase-basis design otherwise.  At d = 2 only
    the complete MUB set exists, so a design size ``m`` is rejected there."""
    if d == 2 and m is not None:
        raise OutOfRangeError(
            "the design size m does not apply at d = 2, which always uses the "
            "complete MUB set"
        )
    if is_prime(d) and m is None:
        return prime_mub_set(d)
    return roy_scott_set(d, m)


def assemble_strategy(
    state: SchmidtState,
    tests,
    label: str = "custom",
    p: float | None = None,
) -> Strategy:
    """Mix tests into a strategy and extract its spectral data.

    ``tests`` is an iterable of (probability, TestOperator) with positive
    probabilities summing to one.  The verification operator is the exact
    weighted sum of the test operators, formed from their factors without
    building any test's matrix; its top eigenvalue must be 1 with the target
    as the top eigenvector.
    """
    tests = _checked_tests(state, tests)
    return _with_spectrum(state, tests, _mix(state.d, tests), label, p)


def _checked_tests(state: SchmidtState, tests) -> tuple:
    """The ``(probability, test)`` pairs as a tuple, after checking that the
    probabilities are a distribution and the tests act on the target's space."""
    tests = tuple((float(q), t) for q, t in tests)
    if not tests:
        raise OutOfRangeError("a strategy needs at least one test")
    probs = np.array([q for q, _ in tests])
    if np.any(probs <= 0):
        raise OutOfRangeError("test probabilities must be positive")
    if abs(float(probs.sum()) - 1.0) > 1e-12:
        raise OutOfRangeError(f"test probabilities sum to {probs.sum():.15g}, not 1")
    if any(test.d != state.d for _, test in tests):
        raise DimensionMismatchError("test operator dimension mismatch")
    return tests


def _with_spectrum(state, tests, omega, label, p) -> Strategy:
    """The strategy with operator ``omega``, after checking that its top
    eigenvalue is 1 with the target as the top eigenvector."""
    w, v = linalg.eig_phase_invariant(omega, state.d)
    if abs(w[0] - 1.0) > TOP_EIGENVALUE_ATOL:
        raise TopEigenvalueError(f"top eigenvalue is {w[0]:.12g}, expected 1")
    psi = state_vector(state)
    overlap = float(np.abs(psi.conj() @ v[:, 0]) ** 2)
    if overlap < 1.0 - 1e-8:
        raise TopEigenvalueError(
            f"top eigenvector overlaps the target with only {overlap:.12g}"
        )
    beta = float(w[1])
    return Strategy(
        state=state,
        tests=tests,
        omega=_freeze(omega),
        beta=beta,
        nu=1.0 - beta,
        label=label,
        p=p,
    )


def optimal_p(state: SchmidtState, kind: str) -> float:
    """Default mixing probability for a built-in strategy kind.

    Kinds I-IV use the probability that maximizes the spectral gap; V uses
    the best choice for adversarially prepared states, max(1/e, lower bound);
    VI uses 1/e, which is always admissible.
    """
    kind = _normalize_kind(kind)
    c2 = state.coeffs**2
    if kind == "I":
        return 0.5
    if kind in ("II", "III"):
        return float(c2[0] / (1.0 + c2[0]))
    if kind == "IV":
        return float((c2[0] + c2[1]) / (2.0 + c2[0] + c2[1]))
    if kind == "V":
        return max(1.0 / math.e, float(c2[0] / (1.0 + c2[0])))
    return 1.0 / math.e


def closed_form_beta(state: SchmidtState, label: str, p: float) -> float | None:
    """Analytic second eigenvalue for the built-in kinds, None otherwise."""
    c2 = state.coeffs**2
    if label == "I":
        return max(p, 1.0 - p)
    if label in ("II", "III"):
        return max(p, (1.0 - p) * float(c2[0]))
    if label == "IV":
        return max(p, (1.0 - p) * float(c2[0] + c2[1]) / 2.0)
    if label in ("V", "VI"):
        return p
    return None


def _normalize_kind(kind) -> str:
    label = str(kind).strip().upper()
    if label not in STRATEGY_KINDS:
        raise OutOfRangeError(
            f"unknown strategy kind {kind!r}; expected one of {STRATEGY_KINDS}"
        )
    return label


def _design_tests(state, design, total, two_way):
    """Tests realizing `total * Pi` (averaged over directions) from a design,
    and the part of Omega they contribute.

    The weighted average avg = sum_{l>=1} w_l P_l of the A -> B tests is one
    Gram product; the identity avg = d/(d+1) Pi is checked on it before the
    tests are used.  A B -> A test is its A -> B twin with the parties
    swapped, SWAP P SWAP, so the two-way part is avg's term plus its party
    swap and the twins are not rebuilt.
    """
    d = state.d
    forward = [test_projector(state, basis) for basis in design.bases[1:]]
    avg = _mix(d, list(zip(design.weights[1:], forward)))
    residual = _design_residual(state, avg, Direction.A_TO_B)
    if residual > DESIGN_ATOL:
        raise DesignMismatchError(
            f"design average misses the closed form by {residual:.3e}"
        )
    share = (d + 1) / d / (2 if two_way else 1)
    tests = []
    for weight, test in zip(design.weights[1:], forward):
        q = total * share * float(weight)
        tests.append((q, test))
        if two_way:
            tests.append((q, replace(test, direction=Direction.B_TO_A)))
    avg *= total * share
    if two_way:
        avg += linalg.party_swap(avg, d)
    return tests, avg


def build_strategy(
    state: SchmidtState,
    kind: str,
    p: float | None = None,
    m: int | None = None,
    basis_1: Basis | None = None,
) -> Strategy:
    """Build one of the six built-in verification strategies.

    Parameters
    ----------
    state : SchmidtState
        Entangled target (c_0 < 1 required).
    kind : str
        One of "I" .. "VI"; see the module docstring.
    p : float, optional
        Mixing probability of the standard (I-IV) or diagonal (V, VI) test.
        Defaults to ``optimal_p(state, kind)``.  Kinds V and VI constrain p
        from below so the acceptance probabilities stay in [0, 1].
    m : int, optional
        Number of design bases when the phase-basis design is used.
    basis_1 : Basis, optional
        For kind I only: the second measurement basis (default Fourier); it
        must be unbiased with the standard basis.

    Notes
    -----
    Kind II requires a complete MUB set, so for non-prime d the target is
    first zero-padded into the smallest prime dimension >= d; the returned
    strategy acts on the enlarged space (see ``Strategy.state``) and keeps
    the same spectral gap.  Whenever a design is used, the identity
    sum_{l>=1} w_l P_l = d/(d+1) Pi is checked once, on the A -> B tests the
    build uses; it is the build's one certificate of the design, and the
    basis set itself is not re-checked (``bases.verify_2design`` certifies
    it separately).
    """
    kind = _normalize_kind(kind)
    if not state.is_entangled:
        raise SeparableStateError(
            "target has c_0 = 1 (product state); the standard test alone verifies it"
        )
    if basis_1 is not None and kind != "I":
        raise OutOfRangeError("basis_1 applies only to strategy kind I")
    if m is not None and kind in ("I", "II"):
        raise OutOfRangeError("the design size m does not apply to kinds I and II")

    if kind == "II" and not is_prime(state.d):
        state = embed_state(state, next_prime(state.d))
    d = state.d
    if p is None:
        p = optimal_p(state, kind)
    p = float(p)

    if kind == "I":
        if not 0.0 < p < 1.0:
            raise OutOfRangeError(f"p must be in (0, 1) for kind I, got {p}")
        basis_1 = basis_1 if basis_1 is not None else fourier_basis(d)
        if not is_unbiased(standard_basis(d), basis_1):
            raise DesignMismatchError(
                "the second basis of kind I must be unbiased with the standard basis"
            )
        tests = [(p, standard_test(state)), (1.0 - p, test_projector(state, basis_1))]
        strategy = assemble_strategy(state, tests, label=kind, p=p)
    else:
        if kind in ("II", "III", "IV"):
            if not 0.0 <= p < 1.0:
                raise OutOfRangeError(f"p must be in [0, 1) for kind {kind}, got {p}")
            design = prime_mub_set(d) if kind == "II" else design_for_dimension(d, m)
            head = [] if p == 0.0 else [(p, standard_test(state))]
        elif kind == "V":
            design = design_for_dimension(d, m)
            head = [(p, one_way_diagonal_test(state, p))]
        else:  # VI
            design = design_for_dimension(d, m)
            head = [(p, two_way_diagonal_test(state, p))]
        design_tests, omega = _design_tests(
            state, design, 1.0 - p, two_way=kind in ("IV", "VI")
        )
        tests = _checked_tests(state, head + design_tests)
        omega += _mix(d, head)
        strategy = _with_spectrum(state, tests, omega, kind, p)
    _check_closed_form_beta(strategy, strategy.beta)
    return strategy


def beta_nu(strategy: Strategy) -> tuple[float, float]:
    """Second eigenvalue and spectral gap, recomputed from the operator.

    Raises TopEigenvalueError if the maximal eigenvalue strays from 1 by more
    than 1e-8, and DesignMismatchError if a built-in label's closed-form beta
    disagrees with the eigensolver beyond 1e-10.
    """
    w, _ = linalg.eig_phase_invariant(strategy.omega, strategy.state.d)
    if abs(w[0] - 1.0) > TOP_EIGENVALUE_ATOL:
        raise TopEigenvalueError(f"top eigenvalue is {w[0]:.12g}, expected 1")
    beta = float(w[1])
    _check_closed_form_beta(strategy, beta)
    return beta, 1.0 - beta


def _check_closed_form_beta(strategy: Strategy, beta: float) -> None:
    """Raise DesignMismatchError if a built-in label's closed-form beta
    disagrees with the eigensolver's ``beta`` beyond BETA_CROSSCHECK_ATOL."""
    if strategy.label in STRATEGY_KINDS and strategy.p is not None:
        expected = closed_form_beta(strategy.state, strategy.label, strategy.p)
        if expected is not None and abs(beta - expected) > BETA_CROSSCHECK_ATOL:
            raise DesignMismatchError(
                f"eigensolver beta {beta:.15g} deviates from the closed form "
                f"{expected:.15g} for kind {strategy.label}"
            )


def is_homogeneous(strategy: Strategy, tol: float = 1e-10) -> bool:
    """True iff Omega = |Psi><Psi| + beta (I - |Psi><Psi|) within tol."""
    proj = target_projector(strategy.state)
    dd = strategy.state.dim
    model = proj + strategy.beta * (np.eye(dd, dtype=complex) - proj)
    return bool(np.abs(strategy.omega - model).max() <= tol)
