"""Outside-in span tracer for the biverify package.

The tracer wraps public functions by name in every package module that binds
them -- ``strategies.test_projector`` as ``build_strategy`` looks it up,
``cli.depolarize`` as the CLI imported it -- so calls made inside the package
are caught with no edit to it.  A name that no module binds any more is
reported as zero calls and zero seconds instead of failing the run.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    incl_s: float = 0.0  # outermost activations only, so recursion is not double counted
    self_s: float = 0.0  # duration minus the time covered by child spans


class Tracer:
    """Spans and counters around the named functions of one package.

    ``spans`` maps a function name to the span recorded around each call.
    ``hooks`` maps a function name to ``hook(result, counters)``, run inside
    the span when the call returns.  ``counted`` maps a function name to a
    counter that each call increments, with no span.
    """

    def __init__(self, package: str, spans: dict, hooks: dict, counted: dict):
        self.package = package
        self.spans = spans
        self.hooks = hooks
        self.counted = counted
        self.missing: set[str] = set()
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        names = set(self.spans) | set(self.counted)
        found = set()
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(self.package + "."))
        ]
        for module in modules:
            for name in names:
                fn = vars(module).get(name)
                if callable(fn):
                    found.add(name)
                    self._saved.append((module, name, fn))
                    setattr(module, name, self._wrap(name, fn))
        self.missing = names - found

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def enter(self, span: str) -> None:
        self._stack.append([span, time.perf_counter(), 0.0])

    def exit(self) -> None:
        span, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        stats = self.stats[span]
        stats.calls += 1
        stats.self_s += elapsed - child
        if all(frame[0] != span for frame in self._stack):
            stats.incl_s += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    def _wrap(self, name: str, fn):
        if name in self.counted:
            counter = self.counted[name]

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                self.counters[counter] += 1
                return fn(*args, **kwargs)

            return counting
        span, hook = self.spans[name], self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(span)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result, self.counters)
            finally:
                self.exit()
            return result

        return traced


STATE_FUNCTIONS = (
    "make_schmidt_state", "depolarize", "density_operator", "embed_state", "embed_density",
)

SPANS = {
    "roy_scott_set": "bases.roy_scott_set",
    "prime_mub_set": "bases.prime_mub_set",
    "verify_2design": "bases.verify_2design",
    "build_strategy": "strategies.build_strategy",
    "test_projector": "strategies.test_projector",
    "design_average_residual": "strategies.design_average_residual",
    "assemble_strategy": "strategies.assemble_strategy",
    "eig_hermitian": "linalg.eig_hermitian",
    "compile_tables": "simulate.compile_tables",
    "exact_pass_rate": "simulate.exact_pass_rate",
    "run_verification": "simulate.run_verification",
    "figure1_table": "analysis.figure1_table",
    **{name: f"states.{name}" for name in STATE_FUNCTIONS},
}
COUNTED = {"trial_rng": "simulate.rng_blocks"}
CLI_SPAN = "cli"


def _count_tests(strategy, counters) -> None:
    """Tests and held test-matrix bytes of a built strategy.

    Reads only the instance dictionaries, so a matrix that a test builds on
    demand is never forced into existence by the count.
    """
    for item in getattr(strategy, "tests", ()):
        test = item[1] if isinstance(item, tuple) else item
        held = getattr(test, "__dict__", {})
        if "acceptance" not in held:  # randomized diagonal tests are not built per basis
            counters["strategies.tests"] += 1
        if isinstance(held.get("matrix"), np.ndarray):
            counters["strategies.test_matrix_bytes"] += held["matrix"].nbytes


def _count_trials(record, counters) -> None:
    counters["simulate.trials"] += getattr(record, "n_trials", 0)


HOOKS = {"build_strategy": _count_tests, "run_verification": _count_trials}


def biverify_tracer() -> Tracer:
    return Tracer("biverify", SPANS, HOOKS, COUNTED)


# (name, unit, better, repeats exactly)
PER_LAYER = (
    ("bases.roy_scott_set.s", "s", "lower", False),
    ("bases.prime_mub_set.s", "s", "lower", False),
    ("bases.verify_2design.s", "s", "lower", False),
    ("bases.verify_2design.calls", "count", "lower", True),
    ("strategies.build_strategy.s", "s", "lower", False),
    ("strategies.test_projector.s", "s", "lower", False),
    ("strategies.test_projector.self_s", "s", "lower", False),
    ("strategies.test_projector.calls", "count", "lower", True),
    ("strategies.design_average_residual.self_s", "s", "lower", False),
    ("strategies.assemble_strategy.self_s", "s", "lower", False),
    ("strategies.tests", "count", "higher", True),
    ("strategies.test_builds_per_test", "ratio", "lower", True),
    ("strategies.test_matrix_mb", "MiB", "lower", True),
    ("linalg.eig_hermitian.s", "s", "lower", False),
    ("linalg.eig_hermitian.calls", "count", "lower", True),
    ("linalg.eig_hermitian.calls_per_strategy", "ratio", "lower", True),
    ("simulate.compile_tables.s", "s", "lower", False),
    ("simulate.exact_pass_rate.s", "s", "lower", False),
    ("simulate.sample_loop.s", "s", "lower", False),
    ("simulate.trials", "count", "higher", True),
    ("simulate.rng_blocks", "count", "lower", True),
    ("simulate.sample_loop.trials_per_s", "1/s", "higher", False),
    ("states.s", "s", "lower", False),
    ("analysis.figure1_table.s", "s", "lower", False),
    ("cli.self_s", "s", "lower", False),
    ("trace.wall_s", "s", "lower", False),
    ("trace.overhead_ratio", "ratio", "lower", False),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the ``trace.*`` ones)."""
    st, c = tracer.stats, tracer.counters
    strategies = st["strategies.build_strategy"].calls
    sample_s = st["simulate.run_verification"].self_s
    return {
        "bases.roy_scott_set.s": st["bases.roy_scott_set"].incl_s,
        "bases.prime_mub_set.s": st["bases.prime_mub_set"].incl_s,
        "bases.verify_2design.s": st["bases.verify_2design"].incl_s,
        "bases.verify_2design.calls": st["bases.verify_2design"].calls,
        "strategies.build_strategy.s": st["strategies.build_strategy"].incl_s,
        "strategies.test_projector.s": st["strategies.test_projector"].incl_s,
        "strategies.test_projector.self_s": st["strategies.test_projector"].self_s,
        "strategies.test_projector.calls": st["strategies.test_projector"].calls,
        "strategies.design_average_residual.self_s":
            st["strategies.design_average_residual"].self_s,
        "strategies.assemble_strategy.self_s": st["strategies.assemble_strategy"].self_s,
        "strategies.tests": c["strategies.tests"],
        "strategies.test_builds_per_test":
            _ratio(st["strategies.test_projector"].calls, c["strategies.tests"]),
        "strategies.test_matrix_mb": c["strategies.test_matrix_bytes"] / 2**20,
        "linalg.eig_hermitian.s": st["linalg.eig_hermitian"].incl_s,
        "linalg.eig_hermitian.calls": st["linalg.eig_hermitian"].calls,
        "linalg.eig_hermitian.calls_per_strategy":
            _ratio(st["linalg.eig_hermitian"].calls, strategies),
        "simulate.compile_tables.s": st["simulate.compile_tables"].incl_s,
        "simulate.exact_pass_rate.s": st["simulate.exact_pass_rate"].incl_s,
        "simulate.sample_loop.s": sample_s,
        "simulate.trials": c["simulate.trials"],
        "simulate.rng_blocks": c["simulate.rng_blocks"],
        "simulate.sample_loop.trials_per_s": _ratio(c["simulate.trials"], sample_s),
        "states.s": sum(st[f"states.{name}"].self_s for name in STATE_FUNCTIONS),
        "analysis.figure1_table.s": st["analysis.figure1_table"].incl_s,
        "cli.self_s": st[CLI_SPAN].self_s,
    }
