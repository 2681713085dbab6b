"""Monte Carlo execution of verification strategies on density operators.

A trial draws a test from the strategy's mixture and passes with that
test's pass probability on the source, pi_l = tr(P_l sigma): the
probability that the measuring party's Born-rule outcome j is followed by
the partner's pass on |v_j>, summed over the outcomes, or for a randomized
diagonal test the tabulated acceptance averaged over the joint
standard-basis outcome.  Given that test l runs n_l times, its passes are
Binomial(n_l, pi_l), so the outcomes need not be drawn.

Every pi_l is read off the source's factors (``DensityOperator``: a
diagonal plus r kets), never off a dense d^2 x d^2 matrix, as 1 minus the
test's fail mass, a sum of non-negative squares, so a test the source
passes for sure reads exactly 1.  A built-in strategy's design and Fourier
tests are diag(row_l) F, so their fail masses come from its mixture
(``strategies._built_in_mixture``, the description its ``tests`` are formed
from) over the d shift classes, O(r m d^2) for m rows, with no basis or
test formed (``compile_tables``).

Trials are i.i.d., so the per-test counts of n trials are Multinomial(n,
q_l), and the passes of a test are Binomial(count, pi_l) given its count.
That is the joint law of n trial-by-trial draws, drawn at O(L) cost per run
for L tests whatever n is.  The draws go through each test's own pi_l,
never through tr(Omega sigma), so the sampled pass rate stays an
independent check of the exact rate.  Tests of zero weight get no trials.
The per-test counts and passes hold the run's per-test tallies;
``RunRecord`` does not carry them yet.

Reproducibility contract: a run opens one counter-based Philox stream,
``trial_rng(seed)``, and makes one multinomial draw of the test counts and
then one binomial draw of the per-test passes on it, so a run is
bit-for-bit reproducible from its seed.  ``n_trials`` is at most
``MAX_TRIALS`` = 2**63 - 1, because numpy draws the counts as int64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import strategies
from .analysis import fidelity_from_pass_rate
from .errors import (
    DimensionMismatchError,
    NotHomogeneousError,
    _instance_arg,
    _integer_arg,
)
from .states import DensityOperator
from .strategies import (
    Direction,
    RandomizedDiagonalTest,
    Strategy,
    is_homogeneous,
)

# complex entries of the largest temporary of one chunk of design rows
# (``_row_fail``) and of sigma's kets (``exact_pass_rate``)
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
    array, the measuring party's index first."""
    diagonal = sigma._diagonal.reshape(d, d)
    kets = sigma._kets.reshape(d, d, -1)
    if direction is Direction.B_TO_A:
        diagonal, kets = diagonal.T, kets.transpose(1, 0, 2)
    return diagonal, kets


def _diagonal_fail(sigma: DensityOperator, acceptance) -> float:
    """A randomized diagonal test's fail mass, sum_jk <jk|sigma|jk>
    (1 - a_jk)."""
    kets = sigma._kets
    probs = sigma._diagonal + np.einsum("kr,kr->k", kets, kets.conj()).real
    return float(probs @ (1.0 - acceptance.ravel()))


def _conditional_fail(basis, kets_v, oriented) -> float:
    """A conditional test's fail mass, for any basis u_j and conditional kets
    v_j (0 on an unsupported outcome, whose whole mass fails), by one
    contraction per factor: sum_jr |p_jr - <v_j, p_jr> v_j|^2, p_jr =
    (<u_j| x I)|y_r> the partner's part of ket r, plus sum_ab g_ab |u_aj|^2
    (1 - |v_bj|^2)."""
    diagonal, kets = oriented
    d = len(basis)
    partial = (basis.conj().T @ kets.reshape(d, -1)).reshape(kets.shape)  # (j, b, r)
    amp = np.einsum("jbr,bj->jr", partial, kets_v.conj())
    partial -= amp[:, None, :] * kets_v.T[:, :, None]
    fail = float(np.vdot(partial, partial).real)
    return fail + float(
        np.einsum("aj,ab,bj->", np.abs(basis) ** 2, diagonal, 1.0 - np.abs(kets_v) ** 2)
    )


def _row_fail(rows, coeffs, oriented):
    """The fail mass of the tests measuring diag(row_l) F, F the Fourier
    basis, for every row l, as an (L,) array.

    Outcome j's pair vector is sum_ab conj(row[a]) row[b] c_b w^{(a-b) j}
    |ab> / sqrt(d), so by Parseval the pass mass of a ket y is
    sum_delta |t[delta]|^2 over the shift classes delta, with t[delta] =
    sum_a conj(row[a]) row[a-delta] c_{a-delta} y[a, a-delta] = <v_delta,
    y_delta>, v_delta a unit vector on class delta.  The fail mass is the
    sum of |y_delta|^2 - |t[delta]|^2 over kets and classes, plus
    sum_ab g_ab (1 - c_b^2) from the diagonal.  Since |row| = 1, v_0 = c
    for every row, so class 0 is row-free: its residual |y_0 - <c, y_0> c|^2
    is formed once.  Rows are taken a chunk at a time, so the (classes x
    rows x kets) products stay within ``_TABLE_CHUNK`` entries.
    """
    diagonal, kets = oriented
    n_rows, d = rows.shape
    r = kets.shape[2]
    a = np.arange(d)
    on_class_0 = kets[a, a]  # (a, r)
    residual = on_class_0 - coeffs[:, None] * (coeffs @ on_class_0)
    fixed = float(np.vdot(residual, residual).real) + float(np.sum(diagonal @ (1.0 - coeffs**2)))
    shift = strategies._shift_index(d)[1:] % d  # shift[delta - 1, a] = a - delta mod d
    classes = kets[a, shift]  # (delta, a, r): y[a, a - delta]
    fixed += float(np.vdot(classes, classes).real)
    classes *= coeffs[shift][:, :, None]
    fail = np.empty(n_rows)
    step = max(1, _TABLE_CHUNK // (d * max(d, r)))
    for start in range(0, n_rows, step):
        chunk = rows[start : start + step]
        pairs = np.moveaxis(chunk.conj()[:, None, :] * chunk[:, shift], 1, 0)
        sums = (pairs @ classes).view(float)  # (delta, row, 2 r): t
        fail[start : start + step] = fixed - np.einsum("jlk,jlk->l", sums, sums)
    return fail


def _built_in_fail(state, sigma: DensityOperator, mixture, oriented):
    """The mixture and the per-test fail masses of a built-in strategy, from
    its closed-form mixture (``strategies._built_in_mixture``): no basis or
    test is formed."""
    c = state.coeffs
    head, rows, q, directions = mixture
    pvec, fail = [], []
    if head is not None:
        p, table = head
        fail.append(_diagonal_fail(sigma, table))
        pvec.append(p)
    per_direction = np.stack([_row_fail(rows, c, oriented[x]) for x in directions], axis=1)
    fail.extend(per_direction.ravel())
    pvec.extend(np.repeat(q, len(directions)))
    return np.array(pvec), np.array(fail)


def compile_tables(strategy: Strategy, sigma: DensityOperator):
    """Per-test pass probabilities for a fixed (strategy, state) pair.

    Returns the normalized mixture ``pvec`` and ``pass_probs``, in the order
    of ``strategy.tests``: test l's pass probability tr(P_l sigma), read off
    sigma's factors as 1 minus the test's fail mass, a sum of non-negative
    squares, so a test the source passes for sure reads exactly 1.  A
    built-in strategy, the one kind with a scalar record, is read from its
    mixture (``strategies._built_in_mixture``): its design and Fourier tests
    come from their phase rows over the shift classes (``_row_fail``),
    O(r m d^2) for r kets and m rows, and no test or basis is formed.  A
    custom mixture's tests take one contraction per test and factor,
    O(r d^3).
    """
    sigma = _check_dimension(strategy, sigma)
    oriented = {x: _oriented(sigma, strategy.state.d, x) for x in Direction}
    if strategy._record is not None:
        mixture = strategies._built_in_mixture(strategy.state, strategy._record)
        pvec, fail = _built_in_fail(strategy.state, sigma, mixture, oriented)
    else:
        fail = np.array([
            _diagonal_fail(sigma, test.acceptance)
            if isinstance(test, RandomizedDiagonalTest)
            else _conditional_fail(
                test.measured_basis.vectors, test.conditional_kets, oriented[test.direction]
            )
            for _, test in strategy.tests
        ])
        pvec = np.array([q for q, _ in strategy.tests])
    return pvec / pvec.sum(), np.clip(1.0 - fail, 0.0, 1.0)


def _draw(
    pvec: np.ndarray, pass_probs: np.ndarray, n_trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-test trial and pass counts of ``n_trials`` i.i.d. trials.

    The counts are Multinomial(n_trials, pvec / pvec.sum()) and the passes
    of a test are Binomial(count, pass_probs) given its count.  Tests of
    zero weight are left out of the multinomial, which hands the rounding
    remainder of its probabilities to its last category, so they get no
    trials.
    """
    live = pvec > 0.0
    counts = np.zeros(pvec.size, dtype=np.int64)
    counts[live] = rng.multinomial(n_trials, pvec[live] / pvec[live].sum())
    return counts, rng.binomial(counts, pass_probs)


def exact_pass_rate(strategy: Strategy, sigma: DensityOperator) -> float:
    """tr(Omega sigma), the exact average pass probability, clamped to
    [0, 1]: over Omega's blocks B_i, the sum of B_i's diagonal against
    sigma's diagonal and of y^dagger B_i y over sigma's kets y restricted to
    the block, a chunk of kets at a time.  Round-off puts the trace a few
    ulps above 1 on the target, and Omega's top eigenvalue is 1 to
    ``errors.Tolerance.EIGEN``, so the clamp hides no larger error than
    that."""
    sigma = _check_dimension(strategy, sigma)
    index, blocks = strategy.index, strategy.blocks
    rate = float(np.einsum("kaa,ka->", blocks, sigma._diagonal[index]).real)
    # one complex product, like ``_row_fail``'s: a real one would page in the
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

    The trials are drawn as per-test counts; see the module docstring for
    the sampler and the reproducibility contract.
    """
    n_trials = _integer_arg("n_trials", n_trials, 1, MAX_TRIALS)
    seed = _integer_arg("seed", seed, 0)
    pvec, pass_probs = compile_tables(strategy, sigma)
    _, passes = _draw(pvec, pass_probs, n_trials, trial_rng(seed))
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
