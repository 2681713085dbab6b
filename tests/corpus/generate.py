"""The equivalence corpus: what every built-in strategy on a fixed grid
answers, so that a change of representation can be checked against the
answers the package gave before it.

The grid is kind I-VI x d in ``DIMENSIONS`` x a random and a zero-tail
target x the default p and ``P_FIXED``.  Each target's amplitudes are
stored with the corpus, so no random stream is needed to rebuild it.  A
case whose build refuses its arguments records the error class.  A built
case records:

- exactly: the built label and dimension (``built_d``, which kind II
  raises to a prime), the number of tests, each test's
  probability ``q``, its direction (``A``, ``B``, or ``D`` for a diagonal
  test) and its supported outcomes as a bit mask; ``is_homogeneous``;
  and ``tests_needed`` at ``BUDGET`` (epsilon, delta);
- to ``TOL``: ``p``, ``beta``, ``nu``, ``optimal_p`` and
  ``tests_needed_adversarial`` at ``BUDGET`` (None where beta is 0); each
  test's measured basis and conditional kets, or its acceptance table, read
  through the fixed probes x^dagger M y (``probes``); each test's mixture
  weight and its ``compile_tables`` pass probability on
  ``depolarize(state, LAMBDA)``; and ``exact_pass_rate`` on that state and
  on ``worst_case_state(strategy, EPS)``;
- ``n_pass`` of a seeded ``run_verification`` on the depolarized state,
  with the numpy version that drew it: numpy does not promise a
  ``Generator`` stream across versions, so it compares exactly under the
  recorded version and within 5 sigma of the exact rate otherwise.

A probe reads a d x d matrix as one complex number, so a corpus of every
matrix entry is not stored; any change to a matrix moves the probe unless
it is orthogonal to x y^dagger, which the fixed non-symmetric probes make a
measure-zero event.

The corpus is a check's data.  Regenerate it only when an answer is meant
to move, and list every moved value with the change:

    PYTHONPATH=src python tests/corpus/generate.py
"""
from __future__ import annotations

import functools
import json
import pathlib

import numpy as np

from biverify import (
    RandomizedDiagonalTest,
    build_strategy,
    depolarize,
    exact_pass_rate,
    is_homogeneous,
    make_schmidt_state,
    optimal_p,
    run_verification,
    tests_needed,
    tests_needed_adversarial,
    worst_case_state,
)
from biverify.errors import BiverifyError
from biverify.simulate import compile_tables

PATH = pathlib.Path(__file__).with_name("corpus.json")
KINDS = ("I", "II", "III", "IV", "V", "VI")
DIMENSIONS = (2, 3, 4, 5, 8, 12, 13, 16, 17)
P_FIXED = 0.7
LAMBDA = 0.1
EPS = 0.1
BUDGET = (0.01, 0.01)
N_TRIALS = 10**6
TOL = 1e-12


def targets(d: int) -> dict[str, list[float]]:
    """A random target and a zero-tail one, whose last d // 3 amplitudes
    are 0, as raw amplitudes (``make_schmidt_state`` sorts and normalizes)."""
    rng = np.random.default_rng([d, 2019])
    amplitudes = 0.05 + rng.random(d)
    tail = amplitudes.copy()
    tail[d - d // 3 :] = 0.0
    return {"random": amplitudes.tolist(), "zero-tail": tail.tolist()}


@functools.cache
def probes(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed complex probes x, y of C^d, for ``_bilinear``."""
    k = np.arange(d)
    x, y = (np.exp(1j * (s * k * k + 0.37 * k + s)) * (1.0 + k / d) for s in (0.61, 1.13))
    return x.conj(), y


def _bilinear(matrix: np.ndarray) -> list[float]:
    """x^dagger M y for the fixed probes of ``probes``."""
    x, y = probes(len(matrix))
    value = complex(x @ matrix @ y)
    return [value.real, value.imag]


def answers(kind: str, amplitudes: list[float], p, seed: int) -> dict:
    """The corpus record of one case: its scalars, and one list entry per
    test in mixing order."""
    state = make_schmidt_state(amplitudes)
    try:
        strategy = build_strategy(state, kind, p)
    except BiverifyError as err:
        return {"error": type(err).__name__}
    d = strategy.state.d
    directions, support, matrices = [], [], []
    for _, test in strategy.tests:
        if isinstance(test, RandomizedDiagonalTest):
            directions.append("D")
            support.append(None)
            matrices.append(_bilinear(test.acceptance))
        else:
            directions.append(test.direction.value[0])
            support.append(int(test.supported @ (1 << np.arange(d))))
            matrices.append(_bilinear(test.measured_basis.vectors))
    sigma = depolarize(strategy.state, LAMBDA)
    pvec, pass_probs = compile_tables(strategy, sigma)
    return {
        "label": strategy.label,
        "built_d": d,
        "p": strategy.p,
        "beta": strategy.beta,
        "nu": strategy.nu,
        "optimal_p": optimal_p(state, kind),
        "exact_depolarized": exact_pass_rate(strategy, sigma),
        "exact_worst_case": exact_pass_rate(strategy, worst_case_state(strategy, EPS)),
        "n_pass": run_verification(strategy, sigma, N_TRIALS, seed).n_pass,
        "q": [q for q, _ in strategy.tests],
        "directions": "".join(directions),
        "support": support,
        "matrices": matrices,
        "tables": [[float(weight), float(pi)] for weight, pi in zip(pvec, pass_probs)],
        "homogeneous": is_homogeneous(strategy),
        "tests_needed": tests_needed(strategy.nu, *BUDGET),
        "tests_needed_adversarial": (
            tests_needed_adversarial(strategy.beta, *BUDGET) if strategy.beta > 0.0 else None
        ),
    }


def cases():
    """(kind, d, target name, amplitudes, p, seed) over the grid."""
    seed = 0
    for d in DIMENSIONS:
        for name, amplitudes in targets(d).items():
            for kind in KINDS:
                for p in (None, P_FIXED):
                    seed += 1
                    yield kind, d, name, amplitudes, p, seed


def generate() -> dict:
    return {
        "numpy": np.__version__,
        "n_trials": N_TRIALS,
        "cases": [
            {"kind": kind, "d": d, "target": name, "amplitudes": amplitudes, "p_arg": p,
             "seed": seed, **answers(kind, amplitudes, p, seed)}
            for kind, d, name, amplitudes, p, seed in cases()
        ],
    }


if __name__ == "__main__":
    corpus = generate()
    PATH.write_text(json.dumps(corpus, separators=(",", ":")) + "\n")
    n_tests = sum(len(case.get("q", ())) for case in corpus["cases"])
    print(f"{len(corpus['cases'])} cases, {n_tests} tests -> {PATH}")
