"""Per-layer spans and counts, recorded from outside the package.

`Tracer.install` replaces each layer's public entry point with a wrapper in
every loaded module namespace that binds it: the package imports these
functions by name (`is_satisfiable` into measure.py, ring.py, semilinear.py
and oracle.py, for example), so patching the defining module alone would miss
most calls.  A wrapper records a span (name, start, end, parent span) only
while the tracer is enabled, which the worker does around each timed
operation, so the benchmark's own checks never show up in the figures.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

from padicmeasure.presburger import AndF, ExistsF, ForallF, NotF, OrF

# (module, function, span name); the order fixes the order of the metrics
LAYERS = (
    ("presburger", "qe", "presburger.qe"),
    ("presburger", "is_satisfiable", "presburger.sat"),
    ("semilinear", "to_cells", "semilinear.to_cells"),
    ("semilinear", "triangulate", "semilinear.triangulate"),
    ("semilinear", "count_parametric", "semilinear.count_parametric"),
    ("measure", "sum_closed_form", "measure.sum_closed_form"),
    ("measure", "make_exp_polynomial", "measure.make_exp_polynomial"),
    ("measure", "exp_poly_is_zero", "measure.exp_poly_is_zero"),
    ("ring", "measure_function", "ring.measure_function"),
    ("ring", "decide_equal", "ring.decide_equal"),
    ("ring", "normalize_to_basic", "ring.normalize_to_basic"),
    ("ring", "find_invalid_step", "ring.find_invalid_step"),
)
SAT_DISJ = "presburger.sat_disj"
SPAN_NAMES = tuple(name for _, _, name in LAYERS) + (SAT_DISJ,)
CLI_VERBS = ("measure", "eq", "normalize", "certify", "count", "qe", "oracle")


def has_disjunction(f) -> bool:
    """True when the formula is disjunctive somewhere once negations are
    pushed inward: an `or` under an even number of `not`s, or an `and` under
    an odd number (the refinement loops query `region /\\ !guard`)."""
    stack = [(f, True)]
    while stack:
        g, positive = stack.pop()
        if isinstance(g, OrF if positive else AndF):
            return True
        if isinstance(g, (AndF, OrF)):
            stack.extend((a, positive) for a in g.args)
        elif isinstance(g, NotF):
            stack.append((g.arg, not positive))
        elif isinstance(g, (ExistsF, ForallF)):
            stack.append((g.body, positive))
    return False


def _cache_size(module: str, *names: str) -> int:
    mod = importlib.import_module(f"padicmeasure.{module}")
    return sum(len(getattr(mod, name, ())) for name in names)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.open: list[int] = []
        self.counts: Counter = Counter()
        self._sat_entries_before = 0

    def install(self) -> None:
        modules = list(sys.modules.values())
        for module_name, attr, span in LAYERS:
            original = getattr(importlib.import_module(f"padicmeasure.{module_name}"), attr)
            wrapper = self._wrap(span, original)
            for module in modules:
                namespace = getattr(module, "__dict__", None)
                if namespace is not None and namespace.get(attr) is original:
                    setattr(module, attr, wrapper)

    def enable(self) -> None:
        self._sat_entries_before = _cache_size("presburger", "_SAT_RESULTS")
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self.counts["sat_new_entries"] += (
            _cache_size("presburger", "_SAT_RESULTS") - self._sat_entries_before)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # recursive calls (qe calls itself per subformula) fold into the
            # outermost span, which keeps the overhead per query constant
            if not tracer.enabled or (
                    tracer.open and tracer.spans[tracer.open[-1]][0] == name):
                return fn(*args, **kwargs)
            span_name = name
            if name == "presburger.sat" and args and has_disjunction(args[0]):
                span_name = SAT_DISJ
            parent = tracer.open[-1] if tracer.open else -1
            index = len(tracer.spans)
            span = [span_name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(span)
            tracer.open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.open.pop()
            tracer._count_output(name, args, result)
            return result

        return traced

    def _count_output(self, name: str, args, result) -> None:
        if name == "semilinear.count_parametric":
            self.counts["pieces_out"] += len(result.pieces)
        elif name == "ring.measure_function":
            self.counts["terms_out"] += len(result.exp_poly.terms)
        elif name == "ring.find_invalid_step":
            self.counts["steps_replayed"] += (
                len(args[0].steps) if result is None else result + 1)

    def self_times(self) -> dict[str, list]:
        """name -> [calls, self seconds]; self time is the span's duration
        minus the durations of its direct children (spans never overlap)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name][0] += 1
            out[name][1] += (end - start) - inner
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The library layers' per-layer metrics, as name -> (value, unit)."""
        per = self.self_times()
        metrics: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            calls, self_s = per[name]
            if name == "presburger.sat":
                # every satisfiability query; sat_disj is the disjunctive subset
                calls += per[SAT_DISJ][0]
                self_s += per[SAT_DISJ][1]
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (self_s, "s")
            if name == "presburger.sat":
                ratio = self.counts["sat_new_entries"] / calls if calls else 0.0
                metrics["presburger.sat.miss_ratio"] = (ratio, "ratio")
            elif name == "semilinear.count_parametric":
                metrics["semilinear.pieces_out"] = (self.counts["pieces_out"], "count")
                metrics["semilinear.cache_entries"] = (
                    _cache_size("semilinear", "_SAT_CACHE", "_TOWER_CACHE"), "count")
            elif name == "ring.measure_function":
                metrics["measure.terms_out"] = (self.counts["terms_out"], "count")
            elif name == "ring.find_invalid_step":
                metrics["ring.steps_replayed"] = (self.counts["steps_replayed"], "count")
        return metrics

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)
