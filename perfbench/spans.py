"""Spans and captures around orthomm's public functions, installed at run time.

Nothing under ``src`` changes: ``Recorder.install`` replaces each traced
function in every loaded ``orthomm`` module namespace that holds it (and
each traced method on its class) with a wrapper.  A traced wrapper
records one span per call -- name, start, end and parent span -- in
memory; the caller writes them out once, at the end.  Every install also
captures the measure and value of each ``strong_functional`` and
``weak_functional`` call, so the output checks can recompute them
independently.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time

# Layer (module) and attribute of every traced callable.
TRACED = (
    ("series", "build_index_set"),
    ("series", "build_partition"),
    ("functionals", "strong_functional"),
    ("functionals", "weak_functional"),
    ("functionals", "dyadic_bound"),
    ("functionals", "classify_good_indices"),
    ("functionals", "filtered_bound"),
    ("functionals", "evaluate_functionals"),
    ("optimize", "minimize_strong"),
    ("processes", "OrthonormalGenerator.sample_matrix"),
    ("processes", "verify_chaining_bound"),
    ("processes", "build_adversarial_process"),
    ("processes", "ProcessSampler.sample"),
    ("processes", "lower_bound_report"),
)
CAPTURED = ("functionals.strong_functional", "functionals.weak_functional")

# Per-layer time metrics: total inclusive seconds of one traced callable
# inside the ``cli.main`` span.
SPAN_METRICS = {
    "series.index_set_s": "series.build_index_set",
    "series.partition_s": "series.build_partition",
    "functionals.strong_warm_s": "functionals.strong_functional",
    "functionals.weak_s": "functionals.weak_functional",
    "functionals.dyadic_s": "functionals.dyadic_bound",
    "functionals.classify_s": "functionals.classify_good_indices",
    "functionals.filtered_s": "functionals.filtered_bound",
    "functionals.evaluate_s": "functionals.evaluate_functionals",
    "optimize.minimize_s": "optimize.minimize_strong",
    "processes.draw_s": "processes.OrthonormalGenerator.sample_matrix",
    "processes.chaining_s": "processes.verify_chaining_bound",
    "processes.sampler_build_s": "processes.build_adversarial_process",
    "processes.sampler_sample_s": "processes.ProcessSampler.sample",
    "processes.lowerbound_s": "processes.lower_bound_report",
}
# Exact counts, which must repeat across runs of the same inputs.
COUNTS = ("series.cells", "series.separation_depth", "functionals.classify_calls",
          "functionals.good_cells", "optimize.iterations", "processes.paths",
          "processes.variates")
_MAX_COUNTS = {"series.separation_depth"}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_partition(fn, args, kwargs, tree):
    return {"series.cells": sum(len(level) for level in tree.levels),
            "series.separation_depth": tree.separation_depth}


def _count_classify(fn, args, kwargs, table):
    return {"functionals.classify_calls": 1,
            "functionals.good_cells": sum(len(lv.good) for lv in table.levels)}


def _count_minimize(fn, args, kwargs, result):
    return {"optimize.iterations": result.iterations}


def _count_sample_matrix(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    gen, n, paths = a["self"], a["n_terms"], a["paths"]
    return {"processes.paths": paths,
            "processes.variates": paths * (gen.uniform_slots(n) + gen.normal_slots(n))}


def _count_sampler(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    sampler, paths = a["self"], a["paths"]
    return {"processes.paths": paths,
            "processes.variates": paths * (sampler.n_uniform_slots
                                           + sampler.n_normal_slots)}


_COUNTERS = {
    "series.build_partition": _count_partition,
    "functionals.classify_good_indices": _count_classify,
    "optimize.minimize_strong": _count_minimize,
    "processes.OrthonormalGenerator.sample_matrix": _count_sample_matrix,
    "processes.ProcessSampler.sample": _count_sampler,
}


class Recorder:
    """Spans, counts and captured functional values of one process."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: dict[str, int] = {c: 0 for c in COUNTS}
        self.captured: list[tuple] = []  # (name, points, weights, value)
        self._stack: list[int] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced callables (all when tracing, else the captured)."""
        for layer, attr in TRACED:
            name = f"{layer}.{attr}"
            if not self.trace and name not in CAPTURED:
                continue
            module = sys.modules[f"orthomm.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "orthomm" and not mod_name.startswith("orthomm."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        capture = name in CAPTURED
        trace = self.trace

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if trace:
                result = self.call(name, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if capture:
                measure = args[0] if args else kwargs["measure"]
                value = result[0] if isinstance(result, tuple) else result
                self.captured.append((name, measure.index_set.points,
                                      measure.weights, float(value)))
            if counter is not None and trace:
                for key, inc in counter(fn, args, kwargs, result).items():
                    if key in _MAX_COUNTS:
                        self.counts[key] = max(self.counts[key], int(inc))
                    else:
                        self.counts[key] += int(inc)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            children.setdefault(parent, []).append((start, end))
        out = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(i, ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def _descends(self, index: int, root: int) -> bool:
        while index != -1:
            index = self.spans[index][3]
            if index == root:
                return True
        return False

    def _outermost(self, index: int) -> bool:
        """No enclosing span of the same name, so totals count time once."""
        name, parent = self.spans[index][0], self.spans[index][3]
        while parent != -1:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def layer_metrics(self, root: int) -> dict[str, float]:
        """Per-layer metrics of the spans under span ``root``."""
        totals: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if self._descends(i, root) and self._outermost(i):
                totals[name] = totals.get(name, 0.0) + (end - start)
        out = {metric: totals.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
        out.update({c: float(self.counts[c]) for c in COUNTS})
        iters = self.counts["optimize.iterations"]
        out["optimize.iter_ms"] = (1e3 * out["optimize.minimize_s"] / iters
                                   if iters else 0.0)
        # computed, not measured: eight bytes per float64 variate
        out["processes.draw_bytes"] = 8.0 * self.counts["processes.variates"]
        out["cli.self_s"] = self.self_times()[root]
        return out

    def cold_strong(self, coeffs_spec: dict) -> dict[str, float]:
        """First ``strong_functional`` on a fresh index set, profile build included.

        Runs before the CLI call, while the high-water mark of the
        resident set is still low, so its growth measures the profile.
        """
        import orthomm

        index_set = orthomm.build_index_set(
            orthomm.CoefficientSequence.from_json(coeffs_spec))
        measure = orthomm.DiscreteMeasure.uniform(index_set)
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        t0 = time.perf_counter()
        orthomm.strong_functional(measure)
        seconds = time.perf_counter() - t0
        rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Release the probe's profile so the CLI call starts as it would
        # untraced; the cache is an implementation detail that may vanish.
        clear = getattr(getattr(sys.modules["orthomm.functionals"], "_profile", None),
                        "cache_clear", None)
        if clear is not None:
            clear()
        self.captured.clear()  # the probe's measure is not the workload's
        return {"functionals.strong_cold_s": seconds,
                "functionals.profile_rss_mb": (rss1 - rss0) / 1024.0}
