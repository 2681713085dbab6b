"""Monte Carlo execution of verification strategies on density operators.

Each trial draws a test from the strategy's mixture, samples the measuring
party's outcome by the Born rule, and accepts with the exact conditional
probability, the joint pass probability <u_j v_j|sigma|u_j v_j> over the
outcome's probability, which is statistically identical to simulating the
partner's full binary measurement.  Randomized diagonal tests sample the
joint standard-basis outcome and accept from the tabulated probabilities.

Every probability is read off the source's factors (``DensityOperator``:
a diagonal plus r kets), never off a dense d^2 x d^2 matrix.  A built-in
strategy's design and Fourier tests are diag(row_l) F, so their tables come
from its mixture (``strategies._built_in_mixture``, the description its
``tests`` are formed from) by one DFT of the row table over the d shift
classes, O(r m d^2) for m rows, with no basis or test formed
(``compile_tables``).

The mixture and the outcome distributions are folded into one categorical
distribution over (test, outcome) cells: cell (l, j) has weight q_l P_l(j)
and acceptance a_l(j).  Trials are i.i.d., so the cell counts of n trials
are Multinomial(n, q_l P_l(j)), and the passes of a cell are
Binomial(count, a_l(j)) given its count.  That is the joint law of n
trial-by-trial draws, drawn at O(K) cost per run for K cells whatever n is.
The draws go through each test's Born-rule table, never through
tr(Omega sigma), so the sampled pass rate stays an independent check of the
exact rate.  Cells of zero weight get no trials.  The per-cell counts and
passes hold the run's per-test tallies; ``RunRecord`` does not carry them yet.

Reproducibility contract: a run opens one counter-based Philox stream,
``trial_rng(seed)``, and makes one multinomial draw of the cell counts and
then one binomial draw of the per-cell passes on it, so a run is
bit-for-bit reproducible from its seed.  ``n_trials`` is at most
``MAX_TRIALS`` = 2**63 - 1, because numpy draws the counts as int64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import strategies
from .analysis import fidelity_from_pass_rate
from .bases import _phases
from .errors import (
    DimensionMismatchError,
    NotHomogeneousError,
    OutOfRangeError,
    _instance_arg,
    _integer_arg,
)
from .states import SUPPORT_CUTOFF, DensityOperator
from .strategies import (
    Direction,
    RandomizedDiagonalTest,
    Strategy,
    is_homogeneous,
)

PROB_FLOOR = 1e-300
# complex entries of the largest temporary of one chunk of design rows
# (``_row_tables``) and of sigma's kets (``exact_pass_rate``)
_TABLE_CHUNK = 2**15
_RATE_CHUNK = 2**11
# numpy draws the counts as int64
MAX_TRIALS = np.iinfo(np.int64).max


@dataclass(frozen=True)
class RunRecord:
    """Tally of one verification run.

    ``exact_rate`` is tr(Omega sigma), computed from Omega's blocks and the
    source's factors independently of the sampled trials, and serves as the
    calibration oracle for the empirical ``pass_rate``.
    """

    n_trials: int
    n_pass: int
    pass_rate: float
    std_err: float
    exact_rate: float
    seed: int


@dataclass(frozen=True)
class FidelityEstimate:
    """Fidelity read off a homogeneous strategy's pass rate."""

    f_hat: float
    std_err: float
    record: RunRecord


def trial_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for ``seed``; the same seed reproduces the
    same draws."""
    seed = _integer_arg("seed", seed, 0)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,)))
    )


def _check_dimension(strategy: Strategy, sigma) -> DensityOperator:
    strategy = _instance_arg("strategy", strategy, Strategy)
    sigma = _instance_arg("sigma", sigma, DensityOperator)
    if sigma.dim != strategy.state.dim:
        raise DimensionMismatchError(
            f"state dimension {sigma.dim} != strategy dimension {strategy.state.dim}"
        )
    return sigma


def _oriented(sigma: DensityOperator, d: int, direction: Direction):
    """sigma's diagonal as a d x d table and its kets as one (d, d, r)
    array, the measuring party's index first, with the measuring party's
    reduced state."""
    diagonal = sigma._diagonal.reshape(d, d)
    kets = sigma._kets.reshape(d, d, -1)
    if direction is Direction.B_TO_A:
        diagonal, kets = diagonal.T, kets.transpose(1, 0, 2)
    reduced = np.einsum("abr,cbr->ac", kets, kets.conj())
    reduced[np.diag_indices(d)] += diagonal.sum(axis=1)
    return diagonal, kets, reduced


def _normalized(probs):
    """Outcome probabilities clipped at 0, checked to sum to 1 within 1e-9
    over the last axis, and normalized."""
    probs = np.clip(probs, 0.0, None)
    total = probs.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        raise OutOfRangeError(f"outcome probabilities sum to {total[off][0]:.12g}")
    return probs / total


def _conditional(probs, joint, supported):
    """(probs, accept) of conditional tests from their outcome and joint pass
    probabilities: the acceptance is joint / probs, clipped to [0, 1], on the
    supported outcomes above ``PROB_FLOOR``, and 0 elsewhere."""
    probs = np.clip(probs, 0.0, None)
    accept = np.zeros_like(probs)
    np.divide(joint, probs, out=accept, where=supported & (probs > PROB_FLOOR))
    return _normalized(probs), np.clip(accept, 0.0, 1.0, out=accept)


def _diagonal_table(sigma: DensityOperator, acceptance) -> tuple:
    """A randomized diagonal test's table: <jk|sigma|jk> and its acceptance."""
    kets = sigma._kets
    probs = sigma._diagonal + np.einsum("kr,kr->k", kets, kets.conj()).real
    return _normalized(probs), acceptance.ravel()


def _conditional_table(basis, kets_v, supported, oriented):
    """A conditional test of any basis u_j and conditional kets v_j, by one
    contraction per factor: P(j) = <u_j|rho|u_j> and the joint pass
    probability sum_r |<u_j v_j|y_r>|^2 + sum_ab g_ab |u_aj|^2 |v_bj|^2."""
    diagonal, kets, reduced = oriented
    probs = np.einsum("aj,ab,bj->j", basis.conj(), reduced, basis).real
    d = len(basis)
    partial = (basis.conj().T @ kets.reshape(d, -1)).reshape(kets.shape)  # (j, b, r)
    amp = np.einsum("jbr,bj->jr", partial, kets_v.conj())
    joint = np.einsum("jr,jr->j", amp, amp.conj()).real
    joint += np.einsum("aj,ab,bj->j", np.abs(basis) ** 2, diagonal, np.abs(kets_v) ** 2)
    return _conditional(probs, joint, supported)


def _row_tables(rows, coeffs, oriented):
    """The tables of the tests measuring diag(row_l) F, F the Fourier basis,
    for every row l, as (L, d) arrays.

    Outcome j's pair vector is sum_ab conj(row[a]) row[b] c_b w^{(a-b) j}
    |ab> / sqrt(d), so its overlap with a ket y is the DFT over the shift
    classes delta of t[delta] = sum_a conj(row[a]) row[a-delta] c_{a-delta}
    y[a, a-delta], and P(j) is the DFT of the same sums over rho's classes,
    with no c.  The diagonal part adds sum_ab g_ab c_b^2 / d to every joint
    probability, since |row| = 1.  Rows are taken a chunk at a time, so the
    (classes x rows x kets) products stay within ``_TABLE_CHUNK`` entries.
    """
    diagonal, kets, reduced = oriented
    n_rows, d = rows.shape
    r = kets.shape[2]
    a = np.arange(d)
    shift = strategies._shift_index(d) % d  # shift[delta, a] = a - delta mod d
    # column k < r: c_{a-delta} y_k[a, a-delta]; column r: rho[a, a-delta]
    classes = np.empty((d, d, r + 1), dtype=complex)
    classes[:, :, :r] = kets[a, shift] * coeffs[shift][:, :, None]
    classes[:, :, r] = reduced[a, shift]
    dft = _phases(range(d), range(d), d).conj()
    offset = float(np.sum(diagonal @ coeffs**2)) / d
    probs = np.empty((n_rows, d))
    joint = np.empty((n_rows, d))
    step = max(1, _TABLE_CHUNK // (d * max(d, r + 1)))
    for start in range(0, n_rows, step):
        chunk = rows[start : start + step]
        pairs = np.moveaxis(chunk.conj()[:, None, :] * chunk[:, shift], 1, 0)
        sums = pairs @ classes  # (delta, row, column)
        amp = (dft @ sums.reshape(d, -1)).reshape(d, len(chunk), r + 1)
        probs[start : start + step] = amp[:, :, r].real.T / d
        squares = amp.view(float).reshape(d, len(chunk), r + 1, 2)[:, :, :r]
        joint[start : start + step] = np.einsum("jlkc,jlkc->lj", squares, squares) / d
    joint += offset
    return probs, joint


def _built_in_tables(state, sigma: DensityOperator, mixture, oriented):
    """``compile_tables`` of a built-in strategy from its closed-form
    mixture (``strategies._built_in_mixture``): no basis or test is formed."""
    d, c = state.d, state.coeffs
    head, rows, q, directions = mixture
    pvec, tables = [], []
    if head is not None:
        p, table = head
        if table is None:  # the standard test
            eye = np.eye(d)
            supported = c**2 > SUPPORT_CUTOFF
            tables.append(
                _conditional_table(eye, eye * supported, supported, oriented[Direction.A_TO_B])
            )
        else:
            tables.append(_diagonal_table(sigma, table))
        pvec.append(p)
    # every outcome of a phase-row test is supported: w_j = 1/d
    per_direction = [_conditional(*_row_tables(rows, c, oriented[x]), True) for x in directions]
    for row, q_row in enumerate(q):
        for probs, accept in per_direction:
            tables.append((probs[row], accept[row]))
            pvec.append(q_row)
    return np.array(pvec), tables


def compile_tables(strategy: Strategy, sigma: DensityOperator):
    """Per-test sampling tables for a fixed (strategy, state) pair.

    Returns the normalized mixture ``pvec`` and, per test in the order of
    ``strategy.tests``, ``(probs, accept)``: the outcome distribution and
    the per-outcome acceptance probability, the joint pass probability
    <u_j v_j|sigma|u_j v_j> over the outcome probability, both read off
    sigma's factors.  A built-in strategy, the one kind with a scalar
    record, is read from its mixture (``strategies._built_in_mixture``): its
    design and Fourier tests come from their phase rows by one DFT over the
    shift classes (``_row_tables``), O(r m d^2) for r kets and m rows, and
    no test or basis is formed.  A custom mixture's tests take one
    contraction per test and factor, O(r d^3).
    """
    sigma = _check_dimension(strategy, sigma)
    oriented = {x: _oriented(sigma, strategy.state.d, x) for x in Direction}
    if strategy._record is not None:
        mixture = strategies._built_in_mixture(strategy.state, strategy._record)
        pvec, tables = _built_in_tables(strategy.state, sigma, mixture, oriented)
        return pvec / pvec.sum(), tables
    tables = []
    for _, test in strategy.tests:
        if isinstance(test, RandomizedDiagonalTest):
            tables.append(_diagonal_table(sigma, test.acceptance))
        else:
            tables.append(
                _conditional_table(
                    test.measured_basis.vectors,
                    test.conditional_kets,
                    test.supported,
                    oriented[test.direction],
                )
            )
    pvec = np.array([q for q, _ in strategy.tests])
    return pvec / pvec.sum(), tables


def _cells(strategy: Strategy, sigma: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """Weights q_l P_l(j) and acceptances a_l(j) of the (test, outcome) cells,
    test by test, from ``compile_tables``."""
    pvec, tables = compile_tables(strategy, sigma)
    weights = np.concatenate([q * probs for q, (probs, _) in zip(pvec, tables)])
    accept = np.concatenate([acc for _, acc in tables])
    # The target's conditional states are exact, so its acceptances are 1, but
    # the ratio of joint to outcome probability can land a few ulps below;
    # within d ulps they are taken as 1, so the target passes every trial.  A
    # pass rate moves by at most d ulps.
    accept[accept >= 1.0 - strategy.state.d * np.finfo(float).eps] = 1.0
    return weights, accept


def _draw(
    weights: np.ndarray, accept: np.ndarray, n_trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell trial and pass counts of ``n_trials`` i.i.d. trials.

    The counts are Multinomial(n_trials, weights / weights.sum()) and the
    passes of a cell are Binomial(count, accept) given its count.  Cells of
    zero weight are left out of the multinomial, which hands the rounding
    remainder of its probabilities to its last category, so they get no
    trials.
    """
    live = weights > 0.0
    counts = np.zeros(weights.size, dtype=np.int64)
    counts[live] = rng.multinomial(n_trials, weights[live] / weights[live].sum())
    return counts, rng.binomial(counts, accept)


def exact_pass_rate(strategy: Strategy, sigma: DensityOperator) -> float:
    """tr(Omega sigma), the exact average pass probability, clamped to
    [0, 1]: over Omega's blocks B_i, the sum of B_i's diagonal against
    sigma's diagonal and of y^dagger B_i y over sigma's kets y restricted to
    the block, a chunk of kets at a time.  Round-off puts the trace a few
    ulps above 1 on the target, and Omega's top eigenvalue is 1 to 1e-8, so
    the clamp hides no larger error than that."""
    sigma = _check_dimension(strategy, sigma)
    index, blocks = strategy.index, strategy.blocks
    rate = float(np.einsum("kaa,ka->", blocks, sigma._diagonal[index]).real)
    # one complex product, like the tables': a real one would page in the
    # real BLAS kernels too, 0.2 MiB of peak RSS per process
    blocks = blocks.astype(complex, copy=False)
    kets = sigma._kets
    step = max(1, _RATE_CHUNK // sigma.dim)
    for start in range(0, kets.shape[1], step):
        part = kets[:, start : start + step][index]  # (block, ket in block, ket)
        rate += float(np.vdot(part, blocks @ part).real)
    return min(max(rate, 0.0), 1.0)


def run_verification(
    strategy: Strategy, sigma: DensityOperator, n_trials: int, seed: int = 0
) -> RunRecord:
    """Run ``n_trials`` independent tests of ``sigma`` and tally the passes.

    The trials are drawn as per-cell counts; see the module docstring for
    the sampler and the reproducibility contract.
    """
    n_trials = _integer_arg("n_trials", n_trials, 1, MAX_TRIALS)
    seed = _integer_arg("seed", seed, 0)
    weights, accept = _cells(strategy, sigma)
    _, passes = _draw(weights, accept, n_trials, trial_rng(seed))
    n_pass = int(passes.sum())
    rate = n_pass / n_trials
    std_err = math.sqrt(max(rate * (1.0 - rate), 0.0) / n_trials)
    return RunRecord(
        n_trials=n_trials,
        n_pass=n_pass,
        pass_rate=rate,
        std_err=std_err,
        exact_rate=exact_pass_rate(strategy, sigma),
        seed=seed,
    )


def estimate_fidelity(
    strategy: Strategy, sigma: DensityOperator, n_trials: int, seed: int = 0
) -> FidelityEstimate:
    """Estimate <Psi|sigma|Psi> from the pass rate of a homogeneous strategy.

    Inverts rate = (1 - beta) F + beta; the standard error scales with
    1/(1 - beta), so smaller beta estimates the fidelity more sharply.
    """
    if not is_homogeneous(strategy):
        raise NotHomogeneousError(
            f"strategy {strategy.label} is not homogeneous; fidelity is not an "
            "affine function of its pass rate"
        )
    # at least 100 trials, for the normal error bar
    n_trials = _integer_arg("n_trials", n_trials, 100)
    record = run_verification(strategy, sigma, n_trials, seed)
    f_hat = fidelity_from_pass_rate(record.pass_rate, strategy.beta).fidelity
    return FidelityEstimate(
        f_hat=f_hat,
        std_err=record.std_err / (1.0 - strategy.beta),
        record=record,
    )
