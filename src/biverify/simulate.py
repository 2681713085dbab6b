"""Monte Carlo execution of verification strategies on density operators.

Each trial draws a test from the strategy's mixture, samples the measuring
party's outcome by the Born rule, and accepts with the exact conditional
probability (a trace ratio), which is statistically identical to simulating
the partner's full binary measurement.  Randomized diagonal tests sample the
joint standard-basis outcome and accept from the tabulated probabilities.

The mixture and the outcome distributions are folded into one categorical
distribution over (test, outcome) cells: cell (l, j) has weight q_l P_l(j)
and acceptance a_l(j), and cells of zero weight are left out, so they are
never drawn.  The cells are sampled through a Walker/Vose alias table of K
columns, and one uniform u per trial decides both the cell and the
acceptance.  With x = u K, the trial falls in column k = floor(x), whose
unit interval [k, k + 1) is laid out as

    [column cell passes | alias cell passes | column cell fails | alias cell fails]

with lengths p a_c, (1 - p) a_a, p (1 - a_c) and (1 - p)(1 - a_a), where p
is the column's alias-table probability and a_c, a_a are the acceptances of
its own and its alias cell.  So the trial passes iff x < threshold[k] =
k + p a_c + (1 - p) a_a: one lookup and one compare per trial, whatever the
number of tests.  The drawn cell is still a function of x, so per-cell (and
per-test) tallies can be read off the same draws.

Reproducibility contract: trials are partitioned into fixed blocks of
``TRIALS_PER_STREAM``; block k makes one call ``random(block)`` on the
counter-based Philox stream ``SeedSequence(seed, spawn_key=(k,))``, one
uniform per trial, and tallies merge by summation, so a run is bit-for-bit
reproducible from its seed and independent of how blocks are scheduled.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .analysis import fidelity_from_pass_rate
from .errors import DimensionMismatchError, NotHomogeneousError, OutOfRangeError
from .states import DensityOperator
from .strategies import (
    ConditionalProjectorTest,
    Direction,
    RandomizedDiagonalTest,
    Strategy,
    is_homogeneous,
)

TRIALS_PER_STREAM = 4096
PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class RunRecord:
    """Tally of one verification run.

    ``exact_rate`` is tr(Omega sigma), computed from the matrices
    independently of the sampled trials, and serves as the calibration
    oracle for the empirical ``pass_rate``.
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


def _integer_arg(name: str, value, minimum: int) -> int:
    """``value`` as a Python int >= ``minimum``; bools and non-integers raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise OutOfRangeError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def trial_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream); identical arguments
    reproduce identical draws, distinct streams are independent."""
    seed = _integer_arg("seed", seed, 0)
    stream = _integer_arg("stream", stream, 0)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,)))
    )


def _check_dimension(strategy: Strategy, sigma: DensityOperator) -> None:
    if sigma.dim != strategy.state.dim:
        raise DimensionMismatchError(
            f"state dimension {sigma.dim} != strategy dimension {strategy.state.dim}"
        )


def _pair_pass_probabilities(rho: np.ndarray, tests):
    """<x_j|sigma|x_j> over the pair-vector columns of each conditional test.

    Yields one array per conditional test, in order.  The columns of
    ``linalg.GRAM_CHUNK`` tests are stacked into one product ``sigma @ X``,
    so only one chunk of vectors is held at a time.
    """
    conditional = (t for t in tests if isinstance(t, ConditionalProjectorTest))
    while chunk := list(itertools.islice(conditional, linalg.GRAM_CHUNK)):
        x = np.concatenate([test.pair_vectors() for test in chunk], axis=1)
        values = np.einsum("ij,ij->j", x.conj(), rho @ x).real
        sizes = [int(test.supported.sum()) for test in chunk]
        yield from np.split(values, np.cumsum(sizes)[:-1])


def compile_tables(strategy: Strategy, sigma: DensityOperator):
    """Per-test sampling tables for a fixed (strategy, state) pair.

    Returns the normalized mixture ``pvec`` and, per test, ``(probs,
    accept)``: the outcome distribution and the per-outcome acceptance
    probability.  A conditional test's outcome probabilities come from the
    measuring party's reduced state (O(d^3) per test); its acceptance is the
    joint pass probability <u_j v_j|sigma|u_j v_j> over the outcome
    probability, the joint values computed a chunk of tests at a time.
    """
    _check_dimension(strategy, sigma)
    d = strategy.state.d
    rho = sigma.matrix
    sigma4 = rho.reshape(d, d, d, d)
    reduced = {
        Direction.A_TO_B: np.einsum("abcb->ac", sigma4),
        Direction.B_TO_A: np.einsum("abad->bd", sigma4),
    }
    tests = [test for _, test in strategy.tests]
    pair_pass = _pair_pass_probabilities(rho, tests)
    tables = []
    for test in tests:
        if isinstance(test, RandomizedDiagonalTest):
            probs = np.clip(np.diag(rho).real, 0.0, None)
            accept = test.acceptance.ravel()
        else:
            basis = test.measured_basis.vectors
            marginal = reduced[test.direction] @ basis
            probs = np.clip(np.einsum("aj,aj->j", basis.conj(), marginal).real, 0.0, None)
            joint = np.zeros(d)
            joint[test.supported] = next(pair_pass)
            accept = np.zeros(d)
            live = test.supported & (probs > PROB_FLOOR)
            accept[live] = np.clip(joint[live] / probs[live], 0.0, 1.0)
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise OutOfRangeError(f"outcome probabilities sum to {total:.12g}")
        tables.append((probs / total, accept))
    pvec = np.array([q for q, _ in strategy.tests])
    return pvec / pvec.sum(), tables


def alias_table(weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walker/Vose alias table for the categorical distribution ``weights``.

    Returns ``(column, prob, alias)`` over the K cells of positive weight:
    picking k uniformly from range(K), then cell ``column[k]`` with
    probability ``prob[k]`` and cell ``alias[k]`` otherwise, draws cell i with
    probability ``weights[i] / sum(weights)``.  Cells of zero weight are
    neither a column nor an alias, so they are never drawn.
    """
    weights = np.asarray(weights, dtype=float)
    column = np.flatnonzero(weights > 0.0)
    if column.size == 0:
        raise OutOfRangeError("no cell has positive weight")
    scaled = (weights[column] * (column.size / weights[column].sum())).tolist()
    cells = column.tolist()
    prob = [1.0] * len(cells)
    alias = list(cells)
    small = [k for k, s in enumerate(scaled) if s < 1.0]
    large = [k for k, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        s, big = small.pop(), large[-1]
        prob[s] = scaled[s]
        alias[s] = cells[big]
        scaled[big] = (scaled[big] + scaled[s]) - 1.0
        if scaled[big] < 1.0:
            small.append(large.pop())
    # whatever is left holds weight 1 up to rounding and keeps its own cell
    return column, np.array(prob), np.array(alias, dtype=np.intp)


def _cells(strategy: Strategy, sigma: DensityOperator) -> np.ndarray:
    """Pass thresholds of the alias columns over the (test, outcome) cells.

    A trial whose uniform u gives x = u * K passes iff x < threshold[k] for
    k = floor(x); see the module docstring for the column layout.
    """
    pvec, tables = compile_tables(strategy, sigma)
    weights = np.concatenate([q * probs for q, (probs, _) in zip(pvec, tables)])
    accept = np.concatenate([acc for _, acc in tables])
    # The target's conditional states are exact, so its acceptances are 1, but
    # the trace ratio can land a few ulps below; within d ulps they are taken
    # as 1, so the target passes every trial.  A pass rate moves by at most
    # d ulps, far below the O(K ulps) resolution of the thresholds.
    accept[accept >= 1.0 - strategy.state.d * np.finfo(float).eps] = 1.0
    column, prob, alias = alias_table(weights)
    a_column, a_alias = accept[column], accept[alias]
    # a_alias + p (a_column - a_alias) is exactly 1 when both acceptances are
    return np.arange(column.size) + (a_alias + prob * (a_column - a_alias))


def _count_passes(threshold: np.ndarray, u: np.ndarray) -> int:
    """Passes among ``u.size`` trials, one uniform of ``u`` per trial."""
    x = u * threshold.size
    return int(np.count_nonzero(x < threshold.take(x.astype(np.intp))))


def exact_pass_rate(strategy: Strategy, sigma: DensityOperator) -> float:
    """tr(Omega sigma), the exact average pass probability."""
    _check_dimension(strategy, sigma)
    return float(np.einsum("ij,ji->", strategy.omega, sigma.matrix).real)


def run_verification(
    strategy: Strategy, sigma: DensityOperator, n_trials: int, seed: int = 0
) -> RunRecord:
    """Run ``n_trials`` independent tests of ``sigma`` and tally the passes.

    Trials are vectorized per RNG block; see the module docstring for the
    sampler and the reproducibility contract.
    """
    n_trials = _integer_arg("n_trials", n_trials, 1)
    seed = _integer_arg("seed", seed, 0)
    threshold = _cells(strategy, sigma)
    n_pass = 0
    for stream, done in enumerate(range(0, n_trials, TRIALS_PER_STREAM)):
        block = min(TRIALS_PER_STREAM, n_trials - done)
        n_pass += _count_passes(threshold, trial_rng(seed, stream).random(block))
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
