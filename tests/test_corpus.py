"""Every built-in strategy on the corpus grid gives the answers it gave when
the corpus was written (``tests/corpus/generate.py`` describes the grid,
the values and how each is compared)."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).with_name("corpus")))
import generate  # noqa: E402

CORPUS = json.loads(generate.PATH.read_text())
EXACT = ("error", "label", "built_d", "q", "directions", "support", "homogeneous", "tests_needed")
CLOSE = (
    "p", "beta", "nu", "optimal_p", "exact_depolarized", "exact_worst_case",
    "tests_needed_adversarial",
)


def _case_id(case):
    p = "default" if case["p_arg"] is None else f"p={case['p_arg']}"
    return f"{case['kind']} d={case['d']} {case['target']} {p}"


def _close(a, b):
    return a is None and b is None or math.isclose(a, b, rel_tol=generate.TOL, abs_tol=generate.TOL)


def _moved(case, got):
    """What moved between a corpus case and its answers now, one line each."""
    moved = [(f, case.get(f), got.get(f)) for f in EXACT if case.get(f) != got.get(f)]
    if "error" in case or moved:
        return moved
    moved += [(f, case[f], got[f]) for f in CLOSE if not _close(case[f], got[f])]
    for field in ("matrices", "tables"):
        for test, (want, now) in enumerate(zip(case[field], got[field])):
            if not all(map(_close, want, now)):
                moved.append((f"{field}[{test}]", want, now))
    n, rate = CORPUS["n_trials"], case["exact_depolarized"]
    if CORPUS["numpy"] == np.__version__:
        if got["n_pass"] != case["n_pass"]:
            moved.append(("n_pass", case["n_pass"], got["n_pass"]))
    elif abs(got["n_pass"] / n - rate) > 5.0 * math.sqrt(rate * (1.0 - rate) / n):
        moved.append(("n_pass beyond 5 sigma of", rate * n, got["n_pass"]))
    return moved


@pytest.mark.parametrize("d", generate.DIMENSIONS)
def test_answers_match_the_corpus(d):
    moved = [
        f"{_case_id(case)}: {field}: corpus {want!r}, now {now!r}"
        for case in CORPUS["cases"]
        if case["d"] == d
        for field, want, now in _moved(
            case, generate.answers(case["kind"], case["amplitudes"], case["p_arg"], case["seed"])
        )
    ]
    assert not moved, "\n".join(moved)


def test_corpus_covers_the_grid():
    assert [
        (c["kind"], c["d"], c["target"], c["p_arg"], c["seed"]) for c in CORPUS["cases"]
    ] == [(kind, d, name, p, seed) for kind, d, name, _, p, seed in generate.cases()]
