"""Span tracer that times qsymlab's layers from outside the package.

Every public function of the traced modules, plus a few methods on their
classes, is replaced by a wrapper that records one span per call. A span's
self time is its duration minus the time covered by its child spans, so the
self times of all spans partition the wall time of the outermost one.

Modules import each other's functions by name (``from .statevector import
run``), so a wrapper is bound in every module namespace that holds the
original, not only in its home module. Methods are wrapped on the class.

Tracing overhead (the wrapper's own bookkeeping and the hooks below) lands
in the caller's self time; ``trace.overhead_frac`` bounds it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("cli", "zoo", "compiler", "distributions", "oracles", "statevector", "disting", "core")
TRACED_METHODS = (
    ("oracles", "StandardOracle", "apply_tensor"),
    ("oracles", "ClassicalOracle", "lookup"),
    ("core", "IndexFunction", "__post_init__"),  # per-map re-validation
)
# spans whose individual durations are kept for percentiles
KEEP_DURATIONS = ("compiler.compile_and_run_once",)


class Tracer:
    """Per-name call counts and self times of nested spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.durations: dict[str, list[float]] = {name: [] for name in KEEP_DURATIONS}
        self.counters: Counter = Counter()
        self._child_time: list[float] = []  # one slot per open span

    def wrap(self, name: str, fn, hook=None):
        """Wrapper recording a span per call; hook(args, kwargs, result) runs after it closes."""
        clock, child_time = self.clock, self._child_time
        calls, self_s = self.calls, self.self_s
        durations = self.durations.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - child_time.pop()
                calls[name] += 1
                if child_time:
                    child_time[-1] += duration
                if durations is not None:
                    durations.append(duration)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced


def _hooks(tracer: Tracer) -> dict:
    """Counters measured at the layer boundaries, keyed by span name."""
    counters = tracer.counters
    distinct_tables: set = set()

    def on_run(args, kwargs, result):
        alg = args[0]
        oracle = args[1] if len(args) > 1 else kwargs.get("oracle")
        counters["statevector.passes"] += alg.repeats
        values = getattr(oracle, "values", None)
        if values is not None:
            distinct_tables.add(values)
            counters["statevector.distinct_tables"] = len(distinct_tables)

    def on_enumerate(args, kwargs, result):
        n, r = args[0].n, args[0].r
        counters["distributions.support_entries"] += len(result)
        counters["distributions.enumerated_pairs"] += r**n * math.perm(n, r)

    def on_compiled_distribution(args, kwargs, result):
        used = result[1]
        counters["compiler.lookups"] += used
        counters["compiler.lookups_max"] = max(counters["compiler.lookups_max"], used)

    return {
        "statevector.run": on_run,
        "distributions.enumerate_small_range_support": on_enumerate,
        "compiler.compiled_distribution": on_compiled_distribution,
    }


def instrument(tracer: Tracer, package: str) -> None:
    """Replace the traced functions and methods of ``package`` by span wrappers."""
    modules = {name: importlib.import_module(f"{package}.{name}") for name in TRACED_MODULES}
    hooks = _hooks(tracer)
    wrappers: dict = {}
    for short, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrappers[value] = tracer.wrap(name, value, hooks.get(name))
    # rebind every by-name import of a wrapped function
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    for short, cls_name, method in TRACED_METHODS:
        cls = getattr(modules[short], cls_name)
        name = f"{short}.{cls_name}.{method}"
        setattr(cls, method, tracer.wrap(name, getattr(cls, method), hooks.get(name)))


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def summary(tracer: Tracer) -> dict:
    """Calls, self times and layer counters of one traced call, as plain JSON."""
    c = tracer.counters
    calls, self_s = tracer.calls, tracer.self_s
    per_module: defaultdict = defaultdict(float)
    for name, seconds in self_s.items():
        per_module[name.split(".", 1)[0]] += seconds

    def ratio(num, den):
        return num / den if den else 0.0

    trial_durations = tracer.durations["compiler.compile_and_run_once"]
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "module_self_s": dict(per_module),
        "counters": dict(c),
        "derived": {
            "statevector.passes": c["statevector.passes"],
            "statevector.distinct_table_ratio": ratio(
                c["statevector.distinct_tables"], calls["statevector.run"]
            ),
            "distributions.support_entries": c["distributions.support_entries"],
            "distributions.pairs_per_entry": ratio(
                c["distributions.enumerated_pairs"], c["distributions.support_entries"]
            ),
            "compiler.lookups_per_trial": ratio(
                calls["oracles.ClassicalOracle.lookup"], calls["compiler.compiled_distribution"]
            ),
            "compiler.compile_and_run_once.p50_us": 1e6 * _percentile(trial_durations, 0.50),
            "compiler.compile_and_run_once.p99_us": 1e6 * _percentile(trial_durations, 0.99),
        },
    }
