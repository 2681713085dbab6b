"""The outside-in tracer tolerates missing names and restores what it wraps."""
from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner():
        time.sleep(0.01)
        return 1

    def outer():
        time.sleep(0.01)
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    return mod


def test_missing_name_reads_zero_and_wrapping_is_undone(fake_package):
    originals = (fake_package.inner, fake_package.outer)
    tr = tracing.Tracer(
        "fakepkg", {"inner": "mod.inner", "outer": "mod.outer", "gone": "mod.gone"}, {}, {}
    )
    tr.install()
    assert tr.missing == {"gone"}
    assert fake_package.outer() == 2
    tr.uninstall()
    assert (fake_package.inner, fake_package.outer) == originals
    assert tr.stats["mod.gone"].calls == 0 and tr.stats["mod.gone"].incl_s == 0.0
    outer, inner = tr.stats["mod.outer"], tr.stats["mod.inner"]
    assert outer.calls == inner.calls == 1
    assert outer.incl_s >= inner.incl_s + 0.009
    assert outer.self_s == pytest.approx(outer.incl_s - inner.incl_s, abs=1e-9)


def test_counted_function_gets_no_span(fake_package):
    tr = tracing.Tracer("fakepkg", {}, {}, {"inner": "inner.calls"})
    tr.install()
    try:
        fake_package.inner()
        fake_package.inner()
    finally:
        tr.uninstall()
    assert tr.counters["inner.calls"] == 2
    assert not tr.stats


def test_layer_metrics_of_an_empty_trace_are_zero():
    metrics = tracing.layer_metrics(tracing.biverify_tracer())
    assert set(metrics) | {"trace.wall_s", "trace.overhead_ratio"} == {
        name for name, *_ in tracing.PER_LAYER
    }
    assert all(value == 0 for value in metrics.values())


class _LazyTest:
    """A test whose matrix is built on demand; reading it would be a bug."""

    measured_basis = None

    @property
    def matrix(self):
        raise AssertionError("the byte count forced a lazy build")


def test_test_count_never_forces_a_lazy_matrix():
    held = types.SimpleNamespace(matrix=np.zeros((4, 4), dtype=complex))
    diagonal = types.SimpleNamespace(acceptance=np.ones((2, 2)), matrix=np.zeros((4, 4)))
    strategy = types.SimpleNamespace(tests=((0.2, held), (0.3, _LazyTest()), (0.5, diagonal)))
    counters = {"strategies.tests": 0, "strategies.test_matrix_bytes": 0}
    tracing._count_tests(strategy, counters)
    assert counters == {"strategies.tests": 2, "strategies.test_matrix_bytes": 256 + 128}


def test_metric_declarations_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == set(run.END_TO_END)
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == {entry[:3] for entry in tracing.PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
