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
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import analysis, bases, linalg
from .analysis import STRATEGY_KINDS, _normalize_kind
from .bases import Basis, _phases, standard_basis
from .errors import (
    DesignMismatchError,
    DimensionMismatchError,
    OutOfRangeError,
    Tolerance,
    TopEigenvalueError,
    _instance_arg,
    _real_arg,
)
from .states import SUPPORT_CUTOFF, SchmidtState, embed_state, state_vector


class Direction(str, Enum):
    """Which party measures first and communicates the outcome."""

    A_TO_B = "AtoB"
    B_TO_A = "BtoA"


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
    u_j orthonormal, and is read only through ``pair_vectors``.  The target
    passes with probability sum_j w_j over the supported outcomes, which a
    basis at the edge of its orthogonality check can push off 1, so
    construction checks it to ``Tolerance.MATRIX``.
    """

    direction: Direction
    measured_basis: Basis
    state: SchmidtState

    def __post_init__(self):
        try:
            object.__setattr__(self, "direction", Direction(self.direction))
        except (ValueError, TypeError):
            raise OutOfRangeError(
                f"direction must be 'AtoB' or 'BtoA', got {self.direction!r}"
            ) from None
        _instance_arg("measured_basis", self.measured_basis, Basis)
        _instance_arg("state", self.state, SchmidtState)
        if self.measured_basis.d != self.state.d:
            raise DimensionMismatchError(
                f"basis dim {self.measured_basis.d} != state dim {self.state.d}"
            )
        weights = self._scaled_kets()[1]
        pass_target = float(weights[weights > SUPPORT_CUTOFF].sum())
        if abs(pass_target - 1.0) > Tolerance.MATRIX:
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


@dataclass(frozen=True, eq=False)
class RandomizedDiagonalTest:
    """Both parties measure the standard basis; outcome (j, k) is accepted
    with probability ``acceptance[j, k]``: the test realizes the diagonal
    operator with the raveled table on its diagonal.  The table must be a
    real d x d array, d >= 2, of probabilities; the test keeps a frozen copy."""

    acceptance: np.ndarray

    def __post_init__(self):
        table = linalg.real_array(self.acceptance, "acceptance probabilities")
        if table.ndim != 2 or not 2 <= len(table) == table.shape[1]:
            raise DimensionMismatchError(
                f"acceptance table must be d x d with d >= 2, got shape {table.shape}"
            )
        if not np.all((table >= 0.0) & (table <= 1.0)):
            raise OutOfRangeError("acceptance probabilities must be finite and in [0, 1]")
        object.__setattr__(self, "acceptance", _freeze(table))

    @property
    def d(self) -> int:
        return self.acceptance.shape[0]


TestOperator = ConditionalProjectorTest | RandomizedDiagonalTest


@dataclass(frozen=True, eq=False)
class Strategy:
    """A convex mixture of tests with its spectral data.

    Omega, the weighted sum of the test operators, is ``blocks[i]`` on the
    |jk> indices ``index[i]``; the index sets partition the d^2 kets, and
    Omega vanishes between them.  ``beta`` is Omega's second-largest
    eigenvalue, ``nu = 1 - beta`` the spectral gap, and ``beta_vector`` a
    unit eigenvector for ``beta`` orthogonal to the target (see
    ``states.worst_case_state``).

    A built-in strategy keeps its scalar record
    (``analysis._strategy_record``): its blocks are the d shift classes (see
    ``build_strategy``), ``p`` is the record's mixing probability of the
    standard/diagonal test, and its tests are formed on first read of
    ``tests`` from ``_built_in_mixture``, which also gives its per-test
    pass probabilities (``simulate.compile_tables``) without forming a
    test.  A custom mixture has no record (None): its one block holds all
    d^2 kets, and it keeps its checked ``(q, test)`` pairs in ``_tests``.
    The record alone tells the two apart.
    """

    state: SchmidtState
    blocks: np.ndarray
    beta: float
    beta_vector: np.ndarray
    label: str
    _record: analysis._StrategyRecord | None = None
    _tests: tuple[tuple[float, TestOperator], ...] = ()

    @property
    def p(self) -> float | None:
        """The built-in kinds' mixing probability, None for a custom mixture."""
        return None if self._record is None else self._record.p

    @cached_property
    def tests(self) -> tuple[tuple[float, TestOperator], ...]:
        """The (probability, test) pairs in mixing order; a built-in
        strategy forms them on first read from ``_built_in_mixture``: its head
        test, then one basis diag(row) F per row, tested in each direction."""
        if self._record is None:
            return self._tests
        head, rows, q, directions = _built_in_mixture(self.state, self._record)
        tests = []
        if head is not None:
            p, table = head
            diagonal_test = self._record.label in ("V", "VI")
            tests.append((p, RandomizedDiagonalTest(table) if diagonal_test
                          else standard_test(self.state)))
        d = self.state.d
        fourier = _phases(range(d), range(d), d)
        for q_row, row in zip(q, rows):
            basis = Basis(d, (fourier * row[:, None]) / math.sqrt(d))
            tests += [(q_row, ConditionalProjectorTest(x, basis, self.state)) for x in directions]
        return tuple(tests)

    @property
    def nu(self) -> float:
        """The spectral gap 1 - beta."""
        return 1.0 - self.beta

    @property
    def index(self) -> np.ndarray:
        """The |jk> indices of each block, one row per block."""
        if self._record is None:
            return _freeze(np.arange(self.state.dim)[None])
        return _shift_index(self.state.d)


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
    state = _instance_arg("state", state, SchmidtState)
    return test_projector(state, standard_basis(state.d))


def one_way_diagonal_test(state: SchmidtState, p: float) -> RandomizedDiagonalTest:
    """Randomized diagonal test whose off-diagonal acceptance tracks the
    non-measuring party's outcome: outcome pair (j, k) passes with
    probability 1 - (1/p - 1) c_k^2 for j != k, and always for j = k."""
    return RandomizedDiagonalTest(_diagonal_acceptance(state, p, "V"))


def two_way_diagonal_test(state: SchmidtState, p: float) -> RandomizedDiagonalTest:
    """Symmetrized randomized diagonal test: outcome pair (j, k) passes with
    probability 1 - (1/p - 1)(c_j^2 + c_k^2)/2 for j != k, and always for
    j = k."""
    return RandomizedDiagonalTest(_diagonal_acceptance(state, p, "VI"))


def _diagonal_acceptance(state: SchmidtState, p: float, kind: str) -> np.ndarray:
    """Kind V or VI's diagonal test table 1 - (1/p - 1) pi, pi being Pi's
    diagonal averaged over the kind's directions (zero on |jj>), which lies
    in [0, 1] iff p >= s/(1 + s) (``analysis._check_p``): it cancels pi
    and makes Omega homogeneous."""
    state = _instance_arg("state", state, SchmidtState)
    p = _real_arg("mixing probability p", p)
    c0sq, c1sq = (state.coeffs[:2] ** 2).tolist()
    analysis._check_p(kind, p, c0sq, c1sq)
    pi = _pi_parts(state, kind == "VI")[1].reshape(state.d, state.d)
    return np.clip(1.0 - (1.0 / p - 1.0) * pi, 0.0, 1.0)


def _pi_parts(state: SchmidtState, two_way: bool) -> tuple[np.ndarray, np.ndarray]:
    """Pi, averaged over both directions if ``two_way``, as (vectors,
    diagonal) for ``_shift_blocks``: |Psi><Psi| is c c^T on span{|jj>}, and
    I x rho_B (rho_A x I for B -> A) is diagonal, with its |jj> entries
    cancelled."""
    d = state.d
    c2 = state.coeffs**2
    diagonal = np.tile(c2, d)
    if two_way:
        diagonal = (diagonal + np.repeat(c2, d)) / 2.0
    diagonal[np.arange(d) * (d + 1)] = 0.0
    vectors = np.zeros((d, d))
    vectors[0] = state.coeffs
    return vectors, diagonal


def _shift_index(d: int) -> np.ndarray:
    """The d shift classes: row delta holds the kets |a, a - delta mod d>
    as their |jk> indices a d + (a - delta mod d)."""
    a = np.arange(d)
    return _freeze(a * d + (a - a[:, None]) % d)


def _shift_blocks(vectors: np.ndarray, diagonal: np.ndarray, weight: float) -> np.ndarray:
    """The blocks weight |v><v| + diag(``diagonal``) on each shift class
    delta (``_shift_index``), with v = ``vectors[delta]`` on its kets and
    ``diagonal`` indexed by |jk>."""
    a = np.arange(len(vectors))
    blocks = np.einsum("ka,kb->kab", vectors, vectors)
    blocks *= weight
    blocks[:, a, a] += diagonal[_shift_index(len(a))]
    return _freeze(blocks)


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
    is orthogonal to the top one, which overlaps the target to
    ``Tolerance.EIGEN``, so the projection leaves it nearly unit.
    """
    state = _instance_arg("state", state, SchmidtState)
    tests = _checked_tests(state, tests)
    linalg.check_eig_dim(state.d * state.d)  # before the d^2 x d^2 Gram product
    omega = _mix(state.d, tests)
    w, v = linalg.eig_hermitian(omega)
    if abs(w[0] - 1.0) > Tolerance.EIGEN:
        raise TopEigenvalueError(f"top eigenvalue is {w[0]:.12g}, expected 1")
    psi = state_vector(state)
    overlap = float(np.abs(psi.conj() @ v[:, 0]) ** 2)
    if overlap < 1.0 - Tolerance.EIGEN:
        raise TopEigenvalueError(
            f"top eigenvector overlaps the target with only {overlap:.12g}"
        )
    beta = float(w[1])
    chi = v[:, 1] - psi * (psi.conj() @ v[:, 1])
    chi = chi / float(np.linalg.norm(chi))
    return Strategy(state, _freeze(omega[None]), beta, _freeze(chi), label, _tests=tests)


def _checked_tests(state: SchmidtState, tests) -> tuple:
    """The ``(probability, test)`` pairs as a tuple, after checking that each
    entry is a pair of a real number (not a bool) and a test, that the
    probabilities are a distribution and the tests act on the target's space,
    the conditional ones made for the target itself."""
    tests = tuple(tests) if isinstance(tests, Iterable) else (tests,)
    if not all(
        isinstance(pair, (tuple, list)) and len(pair) == 2 and isinstance(pair[1], TestOperator)
        for pair in tests
    ):
        raise OutOfRangeError("tests must be (probability, test) pairs of a real number "
                              "and a ConditionalProjectorTest or RandomizedDiagonalTest")
    tests = tuple((_real_arg("probability of a (probability, test) pair", q), t) for q, t in tests)
    if not tests:
        raise OutOfRangeError("a strategy needs at least one test")
    probs = np.array([q for q, _ in tests])
    if not np.all(probs > 0):
        raise OutOfRangeError("test probabilities must be positive")
    if not abs(float(probs.sum()) - 1.0) <= Tolerance.SCALAR:
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


def _closed_form(state: SchmidtState, kind: str, p=None) -> tuple[float, float, float]:
    """``analysis._closed_form`` at the target's c_0^2 and c_1^2."""
    state = _instance_arg("state", state, SchmidtState)
    return analysis._closed_form(kind, *(state.coeffs[:2] ** 2).tolist(), p)


def optimal_p(state: SchmidtState, kind: str) -> float:
    """Default mixing probability for a built-in strategy kind: the gap's
    maximizer for I-IV, the best for adversarial sources for V and VI
    (``analysis._closed_form``)."""
    return _closed_form(state, _normalize_kind(kind))[1]


def closed_form_beta(state: SchmidtState, label: str, p: float) -> float | None:
    """The built strategy's ``beta`` for a built-in kind at a real ``p`` in
    [0, 1) (``analysis._closed_form``); None for any other label."""
    state = _instance_arg("state", state, SchmidtState)
    try:
        kind = _normalize_kind(label)
    except OutOfRangeError:
        return None
    p = _real_arg("mixing probability p", p, 0.0, 1.0, hi_open=True)
    return _closed_form(state, kind, p)[2]


def _head(state: SchmidtState, record: analysis._StrategyRecord):
    """A built-in strategy's head test as ``(p, table)``, None when there is
    none (I-IV at p = 0): ``table`` is the test's d x d acceptance table,
    the diagonal test's for V and VI, and for I-IV the standard test's, 1 on
    each supported |jj> and 0 elsewhere."""
    kind, p = record.label, record.p
    if kind in ("V", "VI"):
        return p, _diagonal_acceptance(state, p, kind)
    if p == 0.0:
        return None
    return p, np.diag((state.coeffs**2 > SUPPORT_CUTOFF).astype(float))


def _built_in_mixture(state: SchmidtState, record: analysis._StrategyRecord):
    """A built-in strategy's mixture in test order, read off its record
    without forming a test: ``(head, rows, q, directions)``.

    ``head`` is ``_head``.  The tail tests measure diag(rows[l]) F, F the
    Fourier basis (kind I's one row is all ones, the design kinds' rows are
    the design's), each row in every one of ``directions`` in turn with
    probability ``q[l]``, so that the tail realizes (1 - p) Pi averaged over
    the directions.
    """
    head, p, design = _head(state, record), record.p, record.design
    if design is None:
        return head, np.ones((1, state.d), dtype=complex), [1.0 - p], (Direction.A_TO_B,)
    directions = tuple(Direction)[: 1 + (record.label in ("IV", "VI"))]
    # the (n, d) row table first: a table too large to allocate is refused
    # before the n weights are written
    rows = bases._rows(design)
    share = (state.d + 1) / state.d / len(directions)
    q = [(1.0 - p) * share * float(weight) for weight in bases._weights(design)[1:]]
    return head, rows, q, directions


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
        Defaults to ``optimal_p(state, kind)``.  Kinds I-IV take p in [0, 1),
        V and VI bound it from below so the acceptance probabilities stay in
        [0, 1], and every kind refuses a p at which its beta is not below 1.
    m : int, optional
        Number of design bases when the phase-basis design is used.

    Notes
    -----
    Every check and every scalar -- d, p, beta and the distance from the
    homogeneous form -- comes from the numpy-free record
    ``analysis._strategy_record``, which ``analyze`` prints without a build.
    Kind II requires a complete MUB set, so for non-prime d the target is
    first zero-padded into the smallest prime dimension >= d; the returned
    strategy acts on the enlarged space (see ``Strategy.state``) and keeps
    the same spectral gap.  Whenever a design is used, it comes from
    ``designs._design(d, m)`` and the record certifies it exactly once from
    its integer table (``designs._Design.residual``), which proves
    sum_{l>=1} w_l P_l = d/(d+1) Pi for every target.  Once it holds, Omega
    is p times the head test's diagonal plus (1 - p) Pi (averaged over the
    two directions for IV and VI): c c^T on span{|jj>} plus a d^2 diagonal.
    Kind I's Fourier test is c_delta c_delta^T, c_delta[a] = c_{a - delta},
    on each shift class delta (the kets |a, a - delta>).  So every kind is
    d real d x d blocks with its spectrum in closed form: no eigenproblem is
    solved and no d^2 x d^2 matrix is formed.

    No test is formed here: the head test (``_head``) enters Omega through
    its diagonal, and ``Strategy.tests`` forms every test when first read.
    """
    state = _instance_arg("state", state, SchmidtState)
    record = analysis._strategy_record(kind, state.coeffs.tolist(), p, m)
    kind, d, p, design = record.label, record.d, record.p, record.design
    if d != state.d:
        state = embed_state(state, d)
    if design is None:
        vectors, diagonal = state.coeffs[_shift_index(d) % d], np.zeros(d * d)
    else:
        vectors, diagonal = _pi_parts(state, kind in ("IV", "VI"))
    diagonal = diagonal * (1.0 - p)
    head = _head(state, record)
    if head is not None:
        diagonal += p * head[1].ravel()
    blocks = _shift_blocks(vectors, diagonal, 1.0 - p)
    chi = _beta_vector(state, kind, record.beta == p)
    return Strategy(state, blocks, record.beta, chi, kind, record)


def _beta_vector(state: SchmidtState, kind: str, on_jj: bool) -> np.ndarray:
    """A unit eigenvector for beta of a built-in strategy's Omega, orthogonal
    to the target.

    On span{|jj>} Omega is (1 - p) c c^T plus p on every supported outcome,
    and outcomes 0 and 1 are supported (``SchmidtState.is_entangled``), so
    (c_1|00> - c_0|11>)/sqrt(c_0^2 + c_1^2) has eigenvalue p.  Off that span
    kind I has 1 - p on sum_a c_{a-1}|a, a-1>, and the design kinds are
    diagonal, with the largest entry, (1 - p) s for II-IV, at |10>; for V
    and VI every entry there is p.  ``on_jj`` picks the first vector, for
    beta = p.
    """
    d = state.d
    chi = np.zeros(d * d, dtype=complex)
    if on_jj:
        c0, c1 = state.coeffs[:2]
        norm = math.hypot(c0, c1)
        chi[0], chi[d + 1] = c1 / norm, -c0 / norm
    elif kind == "I":
        ket = _shift_index(d)[1]
        chi[ket] = state.coeffs[ket % d]
    else:
        chi[d] = 1.0
    return _freeze(chi)


def is_homogeneous(strategy: Strategy, tol: float = Tolerance.MATRIX) -> bool:
    """True iff Omega = |Psi><Psi| + beta (I - |Psi><Psi|) within tol in
    max-norm; ``tol`` must be finite and >= 0.

    A built-in strategy reads the distance off its record, where it is in
    closed form (``analysis._homogeneity_deviation``).  A custom mixture's
    block is compared with beta I + (1 - beta) psi psi^T, psi the target.
    """
    strategy = _instance_arg("strategy", strategy, Strategy)
    tol = _real_arg("tolerance", tol, 0.0, math.inf, hi_open=True)
    if strategy._record is not None:
        return strategy._record.deviation <= tol
    beta = strategy.beta
    psi = state_vector(strategy.state)[strategy.index]
    deviation = strategy.blocks - (1.0 - beta) * psi[:, :, None] * psi[:, None, :].conj()
    diag = np.arange(deviation.shape[1])
    deviation[:, diag, diag] -= beta
    return bool(np.abs(deviation).max() <= tol)
