"""The numpy-free scalar record of a built-in strategy
(``analysis._strategy_record``), which ``analyze`` prints and
``build_strategy`` builds from: the same scalars as the built strategy, a
homogeneity distance equal to the dense one, and the same refusals."""

import math

import numpy as np
import pytest

from biverify import analysis, designs
from biverify.bases import min_design_size
from biverify.cli import main
from biverify.errors import BiverifyError
from biverify.strategies import build_strategy, is_homogeneous, optimal_p
from biverify.states import make_schmidt_state

import dense_oracle as dense

KINDS = ("I", "II", "III", "IV", "V", "VI")
DIMENSIONS = (*range(2, 21), 31, 32)


def targets(d):
    """Raw amplitudes: random, uniform, a zero tail and near-product."""
    rng = np.random.default_rng(d)
    rank = max(2, d // 2)
    return {
        "random": rng.random(d) + 0.05,
        "uniform": np.ones(d),
        "zero-tail": np.concatenate([rng.random(rank) + 0.05, np.zeros(d - rank)]),
        "near-product": np.concatenate([[1.0], 1e-5 * (rng.random(d - 1) + 0.1)]),
    }


def settings(kind, d):
    """(p, m): the default p, p = 0.7, and an explicit m above the design's
    bound where m applies (kinds III-VI at d >= 3)."""
    cases = [(None, None), (0.7, None)]
    if kind not in ("I", "II") and d > 2:
        cases.append((None, min_design_size(d) + 1))
    return cases


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_record_is_the_built_strategy(kind, d):
    """The record's d and default p equal the build's exactly, its p, beta
    and nu to 1e-12, and its homogeneity distance the dense oracle's to
    1e-14, with the same verdict at the default tolerance."""
    for raw in targets(d).values():
        coeffs = analysis._unit_amplitudes(raw.tolist())
        state = make_schmidt_state(raw)
        for p, m in settings(kind, d):
            record = analysis._strategy_record(kind, coeffs, p, m)
            strat = build_strategy(state, kind, p, m)
            assert record.d == strat.state.d
            assert record.optimal_p == optimal_p(strat.state, kind)
            assert abs(record.p - strat.p) <= 1e-12
            assert abs(record.beta - strat.beta) <= 1e-12
            assert abs((1.0 - record.beta) - strat.nu) <= 1e-12
            miss = dense.homogeneity_miss(strat)
            assert abs(record.deviation - miss) <= 1e-14, (kind, d, p, m)
            assert is_homogeneous(strat) is bool(miss <= 1e-10)


def _cli_error(argv, capsys):
    assert main(argv) == 2
    return capsys.readouterr().err


def _build_error(raw, d, kind, p, m):
    try:
        build_strategy(make_schmidt_state(raw, d), kind, p, m)
    except BiverifyError as exc:
        return f"error: {type(exc).__name__}: {exc}\n"
    pytest.fail("build_strategy answered")


def _edge_p():
    """A p for kind V within 1e-12 below its lowest, where the lowest
    acceptance falls below -1e-12."""
    c0sq = analysis._unit_amplitudes([3.0, 1.0])[0] ** 2
    return c0sq / (1.0 + c0sq) - 0.9e-12


BAD = {
    "kind": ([3.0, 2.0, 1.0], None, "VII", None, None, "unknown strategy kind"),
    "separable": ([1.0, 0.0, 0.0], None, "III", None, None, "Schmidt rank 1"),
    "underflowing-c1": ([1.0, 1e-160], None, "V", None, None, "Schmidt rank 1"),
    "m-for-I": ([3.0, 2.0, 1.0], None, "I", None, 8, "does not apply to kinds I and II"),
    "m-for-II": ([3.0, 2.0, 1.0], None, "II", None, 8, "does not apply to kinds I and II"),
    "m-at-d2": ([2.0, 1.0], None, "III", None, 8, "does not apply at d = 2"),
    "embedding": ([1.0] * 63634, None, "II", None, None, "target dimension must be <= 63635"),
    "dimension": ([1.0] * 63636, None, "III", None, None, "dimension must be <= 63635"),
    "m-too-large": ([3.0, 2.0, 1.0], None, "III", None, 10**23, "design size m must be <="),
    "too-few-bases": ([1.0] * 6, None, "IV", None, 10, "need at least 20 bases"),
    "p-for-I": ([3.0, 2.0, 1.0], None, "I", -0.1, None, "p must be in [0, 1) for kind I"),
    "p-for-II": ([3.0, 2.0, 1.0], None, "II", 1.0, None, "p must be in [0, 1) for kind II"),
    "p-below-V": ([3.0, 1.0], None, "V", 0.2, None, "outside ["),
    "p-edge-V": ([3.0, 1.0], None, "V", _edge_p(), None, "acceptance probabilities must lie"),
    "p-nan-VI": ([3.0, 1.0], None, "VI", math.nan, None, "outside ["),
    "p-before-design": ([1.0] * 6, None, "IV", 2.0, 10, "need at least 20 bases"),
    "no-gap": ([3.0, 2.0, 1.0], None, "I", 0.0, None, "leaves no spectral gap"),
    "count": ([3.0, 2.0], 3, "III", None, None, "expected 3 amplitudes, got 2"),
    "negative": ([3.0, -2.0], None, "III", None, None, "amplitudes must be >= 0"),
    "infinite": ([math.inf, 1.0], None, "III", None, None, "amplitudes must be finite"),
    "zero": ([0.0, 0.0], None, "III", None, None, "amplitudes are all zero"),
    "one-amplitude": ([2.0], None, "III", None, None, "local dimension must be >= 2"),
}


@pytest.mark.parametrize("name", sorted(BAD))
def test_analyze_refuses_as_the_build_does(name, capsys):
    """analyze, which forms no strategy, refuses each bad input with the
    class and message that build_strategy raises."""
    raw, d, kind, p, m, fragment = BAD[name]
    argv = ["analyze", "--schmidt", ",".join(map(repr, raw)), "--strategy", kind]
    for flag, value in (("--d", d), ("--p", p), ("--m", m)):
        if value is not None:
            argv += [flag, repr(value)]
    err = _cli_error(argv, capsys)
    assert err == _build_error(raw, d, kind, p, m)
    assert fragment in err and err.count("\n") == 1


def test_failed_certificate_refused_alike(monkeypatch, capsys):
    """A design that fails its certificate is refused by both, before the
    gap."""
    honest = designs._design(5)
    lopsided = designs._Design("lop-sided", honest.exponents, honest.modulus, range(1, 5))
    monkeypatch.setattr(designs, "_design", lambda d, m=None: lopsided)
    err = _cli_error(["analyze", "--schmidt", "3,2,2,1,1", "--strategy", "II"], capsys)
    assert err == _build_error([3.0, 2.0, 2.0, 1.0, 1.0], None, "II", None, None)
    assert "DesignMismatchError: design misses the 2-design identity" in err
