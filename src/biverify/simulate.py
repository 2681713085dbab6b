"""Monte Carlo execution of verification strategies on density operators.

A trial draws a test from the strategy's mixture and passes with that
test's pass probability on the source, pi_l = tr(P_l sigma): the
probability that the measuring party's Born-rule outcome j is followed by
the partner's pass on |v_j>, summed over the outcomes, or for a randomized
diagonal test the tabulated acceptance averaged over the joint
standard-basis outcome.  So a trial passes with the mixture's mean pass
probability sum_l q_l pi_l, and neither the test nor the outcomes need be
drawn.

Every pi_l is read off the source's factors (``DensityOperator``: a
diagonal plus r kets), never off a dense d^2 x d^2 matrix, as 1 minus the
test's fail mass, a sum of non-negative squares, so a test the source
passes for sure reads exactly 1.  A built-in strategy's design and Fourier
tests are diag(row_l) F, so their fail masses come from its mixture
(``strategies._built_in_mixture``, the description its ``tests`` are formed
from) by one DFT of its integer table per live shift class, with no row,
basis or test formed (``compile_tables``).

Trials are i.i.d., so the passes of n trials are Binomial(n, 1 - sum_l q_l
f_l), f_l = 1 - pi_l the fail masses: the joint law of n trial-by-trial
draws, drawn at O(1) cost whatever n is.  The mean is taken as 1 minus the
weighted fail sum, so that on the target, where every fail mass is exactly
0, it reads exactly 1 although the weights sum to 1 only to an ulp.  It goes
through each test's own pi_l, never through tr(Omega sigma), so the sampled
pass rate stays an independent check of the exact rate.

Reproducibility contract: a run opens one counter-based Philox stream,
``trial_rng(seed)``, and makes one binomial draw of its passes on it, so a
run is bit-for-bit reproducible from its seed.  ``n_trials`` is at most
``MAX_TRIALS`` = 2**63 - 1, because numpy draws the passes as int64.
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

# complex entries of one chunk of sigma's kets (``exact_pass_rate``)
_RATE_CHUNK = 2**11
# numpy draws the passes as int64
MAX_TRIALS = np.iinfo(np.int64).max


@dataclass(frozen=True)
class RunRecord:
    """Tally of one verification run.

    ``exact_rate`` is tr(Omega sigma), computed from Omega's factors and the
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


def _row_fail(table, coeffs, oriented):
    """The fail mass of the tests measuring diag(row_l) F, F the Fourier
    basis, for every multiplier l of the integer ``table`` (row_l[a] =
    zeta^{l e(a)}, ``designs._Design``), as an (L,) array.

    Outcome j's pair vector is sum_ab conj(row[a]) row[b] c_b w^{(a-b) j}
    |ab> / sqrt(d), so by Parseval the pass mass of a ket y is
    sum_delta |t[delta]|^2 over the shift classes delta, with t[delta] =
    sum_a conj(row[a]) row[a-delta] c_{a-delta} y[a, a-delta] = <v_delta,
    y_delta>, v_delta a unit vector on class delta.  The fail mass is the
    sum of |y_delta|^2 - |t[delta]|^2 over kets and classes, plus
    sum_ab g_ab (1 - c_b^2) from the diagonal.  Since |row| = 1, v_0 = c
    for every row, so class 0 is row-free: its residual |y_0 - <c, y_0> c|^2
    is formed once.  On class delta >= 1, conj(row_l[a]) row_l[a-delta] =
    zeta^{-l g(a)}, g(a) = e(a) - e(a-delta) mod M, so t_l[delta] is entry
    l mod M of one length-M DFT of c_{a-delta} y[a, a-delta] scattered onto
    g(a): O(r M log M) per class with a nonzero entry, and none otherwise.
    """
    diagonal, kets = oriented
    d, r = kets.shape[1:]
    a = np.arange(d)
    on_class_0 = kets[a, a]  # (a, r)
    residual = on_class_0 - coeffs[:, None] * (coeffs @ on_class_0)
    fixed = float(np.vdot(residual, residual).real) + float(np.sum(diagonal @ (1.0 - coeffs**2)))
    fail = np.full(len(table.multipliers), fixed)
    e, modulus = np.array(table.exponents), table.modulus
    multipliers = np.arange(table.multipliers.start, table.multipliers.stop) % modulus
    for delta in range(1, d):
        b = a - delta
        y = kets[a, b]  # (a, r): y[a, a - delta]
        if not y.any():
            continue
        scattered = np.zeros((modulus, r), dtype=complex)
        np.add.at(scattered, (e - e[b]) % modulus, coeffs[b, None] * y)
        t = np.fft.fft(scattered, axis=0).view(float)  # (l mod M, 2 r): t_l[delta]
        fail += float(np.vdot(y, y).real) - np.einsum("lk,lk->l", t, t)[multipliers]
    return fail


def _built_in_fail(state, sigma: DensityOperator, mixture, oriented):
    """The mixture and the per-test fail masses of a built-in strategy, from
    its closed-form mixture (``strategies._built_in_mixture``): no row,
    basis or test is formed."""
    head, table, q, directions = mixture
    pvec = np.full(len(table.multipliers) * len(directions), q)
    fail = np.stack([_row_fail(table, state.coeffs, oriented[x]) for x in directions], axis=1)
    if head is None:
        return pvec, fail.ravel()
    p, acceptance = head
    return np.append(p, pvec), np.append(_diagonal_fail(sigma, acceptance), fail)


def compile_tables(strategy: Strategy, sigma: DensityOperator):
    """Per-test pass probabilities for a fixed (strategy, state) pair.

    Returns the normalized mixture ``pvec`` and ``pass_probs``, in the order
    of ``strategy.tests``: test l's pass probability tr(P_l sigma), read off
    sigma's factors as 1 minus the test's fail mass, a sum of non-negative
    squares, so a test the source passes for sure reads exactly 1.  A
    built-in strategy, the one kind with a scalar record, is read from its
    mixture (``strategies._built_in_mixture``): its design and Fourier tests
    come from their integer table by one length-M DFT per live shift class
    (``_row_fail``), O(r s M log M) for r kets, s live classes and modulus
    M, and no row, test or basis is formed.  A custom mixture's tests take
    one contraction per test and factor, O(r d^3).  This is the one place
    the fail masses are computed: ``run_verification`` draws its passes
    from their weighted sum.
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


def exact_pass_rate(strategy: Strategy, sigma: DensityOperator) -> float:
    """tr(Omega sigma), the exact average pass probability, clamped to
    [0, 1], read off both operators' factors (``Strategy``,
    ``DensityOperator``): Omega's diagonal g_O + sum_k w_k |X_ik|^2 against
    sigma's diagonal, plus, over sigma's kets y a chunk at a time, g_O |y|^2
    + sum_k w_k |X_ik^T conj(y_i)|^2, y_i the ket's entries on index set i.
    A built-in strategy costs O(r d^2) on r kets.  Round-off puts the trace
    a few ulps above 1 on the target, and Omega's top eigenvalue is 1 to
    ``errors.Tolerance.EIGEN``, so the clamp hides no larger error than
    that."""
    sigma = _check_dimension(strategy, sigma)
    index, diagonal, x, w = strategy.index, strategy.diagonal, strategy.factors, strategy.weights
    # a sum of |z|^2 reads z's real view (re and im on the last axis), so
    # that neither X nor a chunk of kets is copied to take a modulus
    parts = x.view(float).reshape(*x.shape, 2)
    rate = float(diagonal @ sigma._diagonal) + float(
        np.einsum("iskc,iskc,is->k", parts, parts, sigma._diagonal[index]) @ w
    )
    # X^T conj(y) is a complex matrix product, like ``_row_fail``'s: a real
    # one would page in the real BLAS matrix kernels too, 0.2 MiB of peak
    # RSS per process
    x_t, on_sets = np.swapaxes(x, 1, 2), diagonal[index]
    kets = sigma._kets
    step = max(1, _RATE_CHUNK // sigma.dim)
    for start in range(0, kets.shape[1], step):
        part = kets[:, start : start + step][index]  # (index set, ket in set, ket)
        np.conjugate(part, out=part)
        rate += float(np.einsum("is,ist,ist->", on_sets, part.view(float), part.view(float)))
        amp = (x_t @ part).view(float)  # X_i^T conj(y_i): (index set, k, ket re/im)
        rate += float(np.einsum("ikt,ikt->k", amp, amp) @ w)
        del part, amp  # before the next chunk is gathered
    return min(max(rate, 0.0), 1.0)


def run_verification(
    strategy: Strategy, sigma: DensityOperator, n_trials: int, seed: int = 0
) -> RunRecord:
    """Run ``n_trials`` independent tests of ``sigma`` and tally the passes.

    The passes are one Binomial(n_trials, 1 - pvec @ (1 - pass_probs)) draw
    over ``compile_tables``, the mean clamped to [0, 1], since the weights
    sum to 1 only to an ulp; see the module docstring for the sampler and
    the reproducibility contract.
    """
    n_trials = _integer_arg("n_trials", n_trials, 1, MAX_TRIALS)
    seed = _integer_arg("seed", seed, 0)
    pvec, pass_probs = compile_tables(strategy, sigma)
    pass_prob = min(max(1.0 - float(pvec @ (1.0 - pass_probs)), 0.0), 1.0)
    n_pass = int(trial_rng(seed).binomial(n_trials, pass_prob))
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
