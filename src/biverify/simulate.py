"""Monte Carlo execution of verification strategies on density operators.

Each trial draws a test from the strategy's mixture, samples the measuring
party's outcome by the Born rule, and accepts with the exact conditional
probability (a trace ratio), which is statistically identical to simulating
the partner's full binary measurement.  Randomized diagonal tests sample the
joint standard-basis outcome and accept from the tabulated probabilities.

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .analysis import fidelity_from_pass_rate
from .errors import (
    DimensionMismatchError,
    NotHomogeneousError,
    OutOfRangeError,
    _integer_arg,
)
from .states import DensityOperator
from .strategies import (
    ConditionalProjectorTest,
    Direction,
    RandomizedDiagonalTest,
    Strategy,
    is_homogeneous,
)

PROB_FLOOR = 1e-300
# numpy draws the counts as int64
MAX_TRIALS = np.iinfo(np.int64).max


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


def trial_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for ``seed``; the same seed reproduces the
    same draws."""
    seed = _integer_arg("seed", seed, 0)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,)))
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


def _cells(strategy: Strategy, sigma: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """Weights q_l P_l(j) and acceptances a_l(j) of the (test, outcome) cells,
    test by test, from ``compile_tables``."""
    pvec, tables = compile_tables(strategy, sigma)
    weights = np.concatenate([q * probs for q, (probs, _) in zip(pvec, tables)])
    accept = np.concatenate([acc for _, acc in tables])
    # The target's conditional states are exact, so its acceptances are 1, but
    # the trace ratio can land a few ulps below; within d ulps they are taken
    # as 1, so the target passes every trial.  A pass rate moves by at most
    # d ulps.
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
    """tr(Omega sigma), the exact average pass probability, as the sum of
    tr(B_i sigma_i) over Omega's blocks, clamped to [0, 1].  Round-off puts
    the trace a few ulps above 1 on the target, and Omega's top eigenvalue is
    1 to 1e-8, so the clamp hides no larger error than that."""
    _check_dimension(strategy, sigma)
    if len(strategy.blocks) == 1:
        # a custom mixture's one block is Omega itself: trace it against sigma
        # as it is, with no d^2 x d^2 copy
        parts = sigma.matrix[None]
    else:
        index = strategy.index
        parts = sigma.matrix[index[:, :, None], index[:, None, :]]
    rate = float(np.einsum("kij,kji->", strategy.blocks, parts).real)
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
