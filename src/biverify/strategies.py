"""Test operators and verification strategies built from local measurements.

A test is either a conditional projector (one party measures a basis, the
other checks an outcome-dependent ket) or a randomized diagonal test (both
parties measure the standard basis and the verifier accepts outcome (j, k)
with a tabulated probability).  A strategy is a convex mixture of tests; its
verification operator's second eigenvalue beta controls how fast states far
from the target are rejected, through the spectral gap nu = 1 - beta.

Six built-in strategies are provided:

==== =========================================================================
I    standard test mixed with the Fourier test, unbiased to it (two tests)
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
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

import numpy as np

from . import linalg
from .bases import (
    _check_tolerance,
    _design,
    Basis,
    fourier_basis,
    is_prime,
    next_prime,
    standard_basis,
)
from .errors import (
    DesignMismatchError,
    DimensionMismatchError,
    OutOfRangeError,
    SeparableStateError,
    TopEigenvalueError,
)
from .states import SUPPORT_CUTOFF, SchmidtState, embed_state, state_vector

TARGET_PASS_ATOL = 1e-10
TOP_EIGENVALUE_ATOL = 1e-8

STRATEGY_KINDS = ("I", "II", "III", "IV", "V", "VI")


class Direction(str, Enum):
    """Which party measures first and communicates the outcome."""

    A_TO_B = "AtoB"
    B_TO_A = "BtoA"


# the directions each design kind's average Pi runs over
_DIRECTIONS = {
    "II": (Direction.A_TO_B,),
    "III": (Direction.A_TO_B,),
    "IV": tuple(Direction),
    "V": (Direction.A_TO_B,),
    "VI": tuple(Direction),
}


@dataclass(frozen=True, eq=False)
class ConditionalProjectorTest:
    """One conditional-projector test, stored as its measured basis and its
    target ``state``.

    The measuring party projects onto ``measured_basis``; on outcome j the
    other party checks the unit ket v_j = c o conj(u_j) / sqrt(w_j), the
    normalized partial inner product <u_j|Psi>, with the support weight
    w_j = sum_k c_k^2 |u_kj|^2; outcomes outside ``supported`` reject
    outright.  The kets are derived on access, never stored.  The test
    realizes sum_j |u_j><u_j| x |v_j><v_j| over the supported outcomes
    (factors swapped for B -> A), a projector because ``Basis`` holds the
    u_j orthonormal; ``matrix`` builds it on first access.  The target
    passes with probability sum_j w_j over the supported outcomes, which a
    basis at the edge of ORTHO_ATOL can push off 1, so construction checks it.
    """

    direction: Direction
    measured_basis: Basis
    state: SchmidtState

    def __post_init__(self):
        if self.measured_basis.d != self.state.d:
            raise DimensionMismatchError(
                f"basis dim {self.measured_basis.d} != state dim {self.state.d}"
            )
        weights = self._scaled_kets()[1]
        pass_target = float(weights[weights > SUPPORT_CUTOFF].sum())
        if abs(pass_target - 1.0) > TARGET_PASS_ATOL:
            raise DesignMismatchError(f"target pass probability {pass_target:.12g} is not 1")

    @property
    def d(self) -> int:
        return self.state.d

    def _scaled_kets(self) -> tuple[np.ndarray, np.ndarray]:
        """The columns c o conj(u_j) and their squared norms w_j."""
        kets = self.measured_basis.vectors.conj()
        kets *= self.state.coeffs[:, None]
        return kets, np.einsum("kj,kj->j", kets.conj(), kets).real

    @cached_property
    def supported(self) -> np.ndarray:
        """The outcomes whose support weight w_j is a normal double."""
        return _freeze(self._scaled_kets()[1] > SUPPORT_CUTOFF)

    @property
    def conditional_kets(self) -> np.ndarray:
        """Column j is the unit ket v_j, zero for unsupported outcomes."""
        kets, weights = self._scaled_kets()
        np.divide(kets, np.sqrt(weights), out=kets, where=self.supported)
        np.copyto(kets, 0.0, where=~self.supported)
        return kets

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


@dataclass(frozen=True, eq=False)
class RandomizedDiagonalTest:
    """Both parties measure the standard basis; outcome (j, k) is accepted
    with probability ``acceptance[j, k]``.  ``matrix`` builds the diagonal
    operator the test realizes on first access."""

    acceptance: np.ndarray

    @property
    def d(self) -> int:
        return self.acceptance.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense d^2 x d^2 diagonal operator, built on first access."""
        return _freeze(np.diag(self.acceptance.ravel()).astype(complex))


TestOperator = ConditionalProjectorTest | RandomizedDiagonalTest


@dataclass(frozen=True, eq=False)
class Strategy:
    """A convex mixture of tests with its spectral data.

    Omega, the weighted sum of the test operators, is ``blocks[i]`` on the
    |jk> indices ``index[i]``; the index sets partition the d^2 kets, and
    Omega vanishes between them.  The built-in kinds use the d shift classes
    (see ``build_strategy``), a custom mixture one block of all d^2 kets.
    ``omega``, the dense matrix, is scattered on first access, for oracles.
    ``beta`` is Omega's second-largest eigenvalue, ``nu = 1 - beta`` the
    spectral gap, and ``beta_vector`` a unit eigenvector for ``beta``
    orthogonal to the target (see ``states.worst_case_state``).  ``p`` is
    the mixing probability of the standard/diagonal test for the built-in
    kinds (None for custom mixtures).

    ``tests`` are formed on first read by ``_form_tests``: none of the data
    above depends on them, and only the sampling tables
    (``simulate.compile_tables``) read them.
    """

    state: SchmidtState
    _form_tests: Callable[[], tuple[tuple[float, TestOperator], ...]]
    index: np.ndarray
    blocks: np.ndarray
    beta: float
    beta_vector: np.ndarray
    label: str
    p: float | None = None

    @cached_property
    def tests(self) -> tuple[tuple[float, TestOperator], ...]:
        """The (probability, test) pairs in mixing order, formed on first read."""
        return self._form_tests()

    @property
    def nu(self) -> float:
        """The spectral gap 1 - beta."""
        return 1.0 - self.beta

    @cached_property
    def omega(self) -> np.ndarray:
        """The dense d^2 x d^2 Omega, built on first access."""
        return _freeze(_scatter(self.index, self.blocks))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def test_projector(
    state: SchmidtState, basis: Basis, direction: Direction = Direction.A_TO_B
) -> ConditionalProjectorTest:
    """Conditional-projector test from a measurement basis.

    For each outcome j with nonzero target support, the non-measuring party's
    conditional ket is the normalized partial inner product of the basis ket
    with the target; construction checks that the target passes with
    certainty (see ``ConditionalProjectorTest``).
    """
    return ConditionalProjectorTest(direction, basis, state)


test_projector.__test__ = False  # keep pytest from collecting the imported name


def standard_test(state: SchmidtState) -> ConditionalProjectorTest:
    """Both parties measure the standard basis; pass on equal supported outcomes."""
    return test_projector(state, standard_basis(state.d))


def one_way_diagonal_test(state: SchmidtState, p: float) -> RandomizedDiagonalTest:
    """Randomized diagonal test whose off-diagonal acceptance tracks the
    non-measuring party's outcome: outcome pair (j, k) passes with
    probability 1 - (1/p - 1) c_k^2 for j != k, and always for j = k."""
    return RandomizedDiagonalTest(_diagonal_acceptance(state, p, _DIRECTIONS["V"]))


def two_way_diagonal_test(state: SchmidtState, p: float) -> RandomizedDiagonalTest:
    """Symmetrized randomized diagonal test: outcome pair (j, k) passes with
    probability 1 - (1/p - 1)(c_j^2 + c_k^2)/2 for j != k, and always for
    j = k."""
    return RandomizedDiagonalTest(_diagonal_acceptance(state, p, _DIRECTIONS["VI"]))


def _diagonal_acceptance(state: SchmidtState, p: float, directions) -> np.ndarray:
    """The diagonal test's table 1 - (1/p - 1) pi, pi being Pi's diagonal
    averaged over ``directions`` (zero on |jj>), which lies in [0, 1] iff
    p >= ``_lowest_p``: it cancels pi and makes Omega homogeneous."""
    lo = _lowest_p(state, directions)
    if not lo - 1e-12 <= p < 1.0:
        raise OutOfRangeError(
            f"mixing probability p={p} outside [{lo:.12g}, 1): acceptance "
            "probabilities would leave [0, 1]"
        )
    pi = _pi_parts(state, directions)[1].reshape(state.d, state.d)
    acceptance = 1.0 - (1.0 / p - 1.0) * pi
    if acceptance.min() < -1e-12 or acceptance.max() > 1.0 + 1e-12:
        raise OutOfRangeError("acceptance probabilities must lie in [0, 1]")
    return _freeze(np.clip(acceptance, 0.0, 1.0))


def pi_operator(state: SchmidtState, direction: Direction = Direction.A_TO_B) -> np.ndarray:
    """Average of the non-standard design tests, in closed form.

    Equals |Psi><Psi| + I x rho_B - sum_k c_k^2 |kk><kk| for the one-way
    direction (the mirrored form for the other).
    """
    return _scatter(*_shift_blocks(*_pi_parts(state, (direction,)), 1.0))


def _pi_parts(state: SchmidtState, directions) -> tuple[np.ndarray, np.ndarray]:
    """Pi averaged over ``directions`` as (vectors, diagonal) for
    ``_shift_blocks``: |Psi><Psi| is c c^T on span{|jj>}, and I x rho_B
    (rho_A x I for B -> A) is diagonal, with its |jj> entries cancelled."""
    d = state.d
    c2 = state.coeffs**2
    one_way = {Direction.A_TO_B: np.tile(c2, d), Direction.B_TO_A: np.repeat(c2, d)}
    diagonal = np.mean([one_way[x] for x in directions], axis=0)
    diagonal[np.arange(d) * (d + 1)] = 0.0
    vectors = np.zeros((d, d))
    vectors[0] = state.coeffs
    return vectors, diagonal


def _shift_blocks(vectors: np.ndarray, diagonal: np.ndarray, weight: float):
    """(index, blocks) of weight |v><v| + diag(``diagonal``) on each shift
    class delta, whose kets |a, a - delta> are ``index[delta]``, with
    v = ``vectors[delta]`` on them and ``diagonal`` indexed by |jk>."""
    a = np.arange(len(vectors))
    index = a * len(a) + (a - a[:, None]) % len(a)
    blocks = np.einsum("ka,kb->kab", vectors, vectors)
    blocks *= weight
    blocks[:, a, a] += diagonal[index]
    return _freeze(index), _freeze(blocks)


def _scatter(index: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The dense matrix with ``blocks[i]`` on the indices ``index[i]``."""
    n = index.size
    out = np.zeros((n, n), dtype=complex)
    out[index[:, :, None], index[:, None, :]] = blocks
    return out


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


def assemble_strategy(
    state: SchmidtState,
    tests,
    label: str = "custom",
) -> Strategy:
    """Mix tests into a strategy and extract its spectral data.

    ``tests`` is an iterable of (probability, TestOperator) with positive
    probabilities summing to one, every conditional test made for ``state``.
    The verification operator is the exact weighted sum of the test
    operators, formed from their factors without building any test's matrix,
    and its spectrum comes from one dense eigensolve.  Its top eigenvalue
    must be 1 with the target as the top eigenvector.  The second
    eigenvector is kept as ``beta_vector`` once projected off the target; it
    is orthogonal to the top one, which overlaps the target to 1e-8, so the
    projection leaves it nearly unit.
    """
    tests = _checked_tests(state, tests)
    linalg.check_eig_dim(state.d * state.d)  # before the d^2 x d^2 Gram product
    omega = _mix(state.d, tests)
    w, v = linalg.eig_hermitian(omega)
    if abs(w[0] - 1.0) > TOP_EIGENVALUE_ATOL:
        raise TopEigenvalueError(f"top eigenvalue is {w[0]:.12g}, expected 1")
    psi = state_vector(state)
    overlap = float(np.abs(psi.conj() @ v[:, 0]) ** 2)
    if overlap < 1.0 - 1e-8:
        raise TopEigenvalueError(
            f"top eigenvector overlaps the target with only {overlap:.12g}"
        )
    beta = float(w[1])
    chi = v[:, 1] - psi * (psi.conj() @ v[:, 1])
    chi = chi / float(np.linalg.norm(chi))
    one_block = _freeze(np.arange(omega.shape[0])[None]), _freeze(omega[None])
    return Strategy(
        state, partial(tuple, tests), *one_block, beta, _freeze(chi), label
    )


def _checked_tests(state: SchmidtState, tests) -> tuple:
    """The ``(probability, test)`` pairs as a tuple, after checking that the
    probabilities are a distribution and the tests act on the target's space,
    the conditional ones made for the target itself."""
    tests = tuple((float(q), t) for q, t in tests)
    if not tests:
        raise OutOfRangeError("a strategy needs at least one test")
    probs = np.array([q for q, _ in tests])
    if not np.all(probs > 0):
        raise OutOfRangeError("test probabilities must be positive")
    if not abs(float(probs.sum()) - 1.0) <= 1e-12:
        raise OutOfRangeError(f"test probabilities sum to {probs.sum():.15g}, not 1")
    if any(test.d != state.d for _, test in tests):
        raise DimensionMismatchError("test operator dimension mismatch")
    if any(
        isinstance(test, ConditionalProjectorTest)
        and test.state is not state
        and not np.array_equal(test.state.coeffs, state.coeffs)
        for _, test in tests
    ):
        raise DesignMismatchError("a conditional test was made for another target")
    return tests


def _lowest_p(state: SchmidtState, directions) -> float:
    """s / (1 + s), s being the largest entry of Pi's diagonal off |jj>: the
    mean of c_0^2, and c_1^2 if Pi runs both ways.  It is the optimal p of
    II-IV, and the lowest p at which a diagonal test's table is in [0, 1]."""
    top = (state.coeffs[: len(directions)] ** 2).tolist()
    return sum(top) / sum(top, float(len(top)))


def optimal_p(state: SchmidtState, kind: str) -> float:
    """Default mixing probability for a built-in strategy kind.

    Kinds I-IV use the probability that maximizes the spectral gap; V uses
    the best choice for adversarially prepared states, max(1/e, lower bound);
    VI uses 1/e, which is always admissible.
    """
    kind = _normalize_kind(kind)
    if kind == "I":
        return 0.5
    if kind == "VI":
        return 1.0 / math.e
    lo = _lowest_p(state, _DIRECTIONS[kind])
    return max(1.0 / math.e, lo) if kind == "V" else lo


def closed_form_beta(state: SchmidtState, label: str, p: float) -> float | None:
    """Analytic second eigenvalue for the built-in kinds, None otherwise.

    It is the built strategy's ``beta`` for every built-in kind (see
    ``build_strategy``): max(p, 1 - p) for I, max(p, (1 - p) s) for II-IV
    and p for V and VI.
    """
    if label == "I":
        return max(p, 1.0 - p)
    if label in ("V", "VI"):
        return p
    if label in _DIRECTIONS:
        top = (state.coeffs[: len(_DIRECTIONS[label])] ** 2).tolist()
        return max(p, (1.0 - p) * sum(top) / len(top))
    return None


def _normalize_kind(kind) -> str:
    label = str(kind).strip().upper()
    if label not in STRATEGY_KINDS:
        raise OutOfRangeError(
            f"unknown strategy kind {kind!r}; expected one of {STRATEGY_KINDS}"
        )
    return label


def _head_diagonal(state: SchmidtState, kind: str, p: float) -> np.ndarray:
    """The head test's diagonal in the |jk> basis, in closed form: 1 on the
    standard test's supported |jj>, or V and VI's acceptance table.  A p
    outside the kind's range is refused."""
    if kind in ("V", "VI"):
        return _diagonal_acceptance(state, p, _DIRECTIONS[kind]).ravel()
    if kind != "I" and not 0.0 <= p < 1.0:
        raise OutOfRangeError(f"p must be in [0, 1) for kind {kind}, got {p}")
    return np.diag((state.coeffs**2 > SUPPORT_CUTOFF).astype(float)).ravel()


def _built_in_tests(state, kind, p, design):
    """A built-in strategy's (probability, test) pairs in mixing order: the
    head test (none for II-IV at p = 0), then kind I's Fourier test
    (``design`` is None) or the design's tests."""
    if kind in ("V", "VI"):
        acceptance = _diagonal_acceptance(state, p, _DIRECTIONS[kind])
        head = ((p, RandomizedDiagonalTest(acceptance)),)
    else:
        head = () if p == 0.0 else ((p, standard_test(state)),)
    if design is None:
        return (*head, (1.0 - p, test_projector(state, fourier_basis(state.d))))
    return (*head, *_design_tests(state, design, 1.0 - p, len(_DIRECTIONS[kind]) > 1))


def _design_tests(state, design, total, two_way):
    """The tests realizing ``total`` Pi (averaged over both directions if
    ``two_way``) from a certified built-in design, one per basis and
    direction; a test derives its conditional kets on demand."""
    directions = tuple(Direction)[: 1 + two_way]
    share = (state.d + 1) / state.d / len(directions)
    tests = []
    for weight, basis in zip(design.weights[1:], design.basis_set.bases[1:]):
        q = total * share * float(weight)
        tests.extend((q, ConditionalProjectorTest(x, basis, state)) for x in directions)
    return tests


def build_strategy(
    state: SchmidtState,
    kind: str,
    p: float | None = None,
    m: int | None = None,
) -> Strategy:
    """Build one of the six built-in verification strategies.

    Parameters
    ----------
    state : SchmidtState
        Entangled target (Schmidt rank >= 2 required).
    kind : str
        One of "I" .. "VI"; see the module docstring.
    p : float, optional
        Mixing probability of the standard (I-IV) or diagonal (V, VI) test.
        Defaults to ``optimal_p(state, kind)``.  Kinds V and VI constrain p
        from below so the acceptance probabilities stay in [0, 1], and every
        kind refuses a p at which its closed-form beta is not below 1.
    m : int, optional
        Number of design bases when the phase-basis design is used.

    Notes
    -----
    Kind II requires a complete MUB set, so for non-prime d the target is
    first zero-padded into the smallest prime dimension >= d; the returned
    strategy acts on the enlarged space (see ``Strategy.state``) and keeps
    the same spectral gap.  Whenever a design is used, it comes from
    ``bases._design(d, m)`` and is certified exactly once from its integer
    table (``bases._Design.residual``), which proves sum_{l>=1} w_l P_l =
    d/(d+1) Pi for every target.  Once it holds, Omega is p times the head
    test's diagonal plus (1 - p) Pi (averaged over the two directions for IV
    and VI): c c^T on span{|jj>} plus a d^2 diagonal.  Kind I's Fourier test
    is c_delta c_delta^T, c_delta[a] = c_{a - delta}, on each shift class
    delta (the kets |a, a - delta>).  So every kind is d real d x d blocks
    with its spectrum in closed form: no eigenproblem is solved and no
    d^2 x d^2 matrix is formed.

    No test is formed here: the head test enters Omega through its
    closed-form diagonal (``_head_diagonal``), and ``Strategy.tests`` forms
    every test when first read (``_built_in_tests``).
    """
    kind = _normalize_kind(kind)
    if not state.is_entangled:
        raise SeparableStateError(
            f"target has Schmidt rank 1 to double precision (c_1 = {state.coeffs[1]:.3g}); "
            "the standard test alone verifies it"
        )
    if m is not None and kind in ("I", "II"):
        raise OutOfRangeError("the design size m does not apply to kinds I and II")

    if kind == "II" and not is_prime(state.d):
        state = embed_state(state, next_prime(state.d))
    d = state.d
    if p is None:
        p = optimal_p(state, kind)
    p = float(p)

    if kind == "I":
        design = None
        head = _head_diagonal(state, kind, p)
        shift = np.arange(d) - np.arange(d)[:, None]  # a - delta, wrapped by indexing
        vectors, diagonal = state.coeffs[shift], np.zeros(d * d)
    else:
        # kind II refuses m and has a prime d here: the complete MUB set
        design = _design(d, m)
        design.rows  # a table too large to allocate fails before any O(d^2) work
        head = _head_diagonal(state, kind, p)
        residual = design.residual()
        if residual:
            raise DesignMismatchError(
                f"design misses the 2-design identity by {residual:.3e}"
            )
        vectors, diagonal = _pi_parts(state, _DIRECTIONS[kind])
    beta = closed_form_beta(state, kind, p)
    # no gap: kind I where 1 - p rounds to 1, II and III at p = 0 where c_0^2 does
    if not beta < 1.0:
        raise OutOfRangeError(
            f"p = {p} leaves no spectral gap for kind {kind}: beta = {beta:.17g} is not below 1"
        )
    index, blocks = _shift_blocks(vectors, diagonal * (1.0 - p) + p * head, 1.0 - p)
    chi = _beta_vector(state, kind, beta == p)
    form_tests = partial(_built_in_tests, state, kind, p, design)
    return Strategy(state, form_tests, index, blocks, beta, chi, kind, p)


def _beta_vector(state: SchmidtState, kind: str, on_jj: bool) -> np.ndarray:
    """A unit eigenvector for beta of a built-in strategy's Omega, orthogonal
    to the target.

    On span{|jj>} Omega is (1 - p) c c^T plus p on every supported outcome,
    and outcomes 0 and 1 are supported (``SchmidtState.is_entangled``), so
    (c_1|00> - c_0|11>)/sqrt(c_0^2 + c_1^2) has eigenvalue p.  Off that span
    kind I has 1 - p on sum_a c_{a-1}|a, a-1>, and the design kinds are
    diagonal, with the largest entry, (1 - p) c_0^2 for II and III and
    (1 - p)(c_0^2 + c_1^2)/2 for IV, at |10>; for V and VI every entry there
    is p.  ``on_jj`` picks the first vector, for beta = p.
    """
    d = state.d
    chi = np.zeros(d * d, dtype=complex)
    if on_jj:
        c0, c1 = state.coeffs[:2]
        norm = math.hypot(c0, c1)
        chi[0], chi[d + 1] = c1 / norm, -c0 / norm
    elif kind == "I":
        a = np.arange(d)
        chi.reshape(d, d)[a, a - 1] = state.coeffs[a - 1]
    else:
        chi[d] = 1.0
    return _freeze(chi)


def is_homogeneous(strategy: Strategy, tol: float = 1e-10) -> bool:
    """True iff Omega = |Psi><Psi| + beta (I - |Psi><Psi|) within tol in
    max-norm; ``tol`` must be finite and >= 0.

    Both vanish between the index sets, so block i is compared with
    beta I + (1 - beta) psi_i psi_i^T, psi_i the target on ``index[i]``:
    O(d^3) for the built-in kinds, with no d^2 x d^2 temporary.
    """
    _check_tolerance(tol)
    beta = strategy.beta
    psi = state_vector(strategy.state)[strategy.index]
    deviation = strategy.blocks - (1.0 - beta) * psi[:, :, None] * psi[:, None, :].conj()
    diag = np.arange(deviation.shape[1])
    deviation[:, diag, diag] -= beta
    return bool(np.abs(deviation).max() <= tol)
