"""Spans around calls into selweight's public functions, recorded from outside.

While :meth:`Tracer.installed` is active, each function in ``TRACED`` is
replaced, in every selweight module that refers to it by name, by a wrapper
that records a span (name, operation, parent, start, end) and the counts its
result carries. The package itself is not modified, and leaving the context
restores the original functions. Spans stay in memory until the run ends.
"""

import importlib
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def _weight_counts(args, kwargs, ws):
    d = ws.diagnostics
    counts = {"clamped": d.get("clamped_low", 0) + d.get("clamped_high", 0)}
    for key in ("iterations", "n_cells"):
        if key in d:
            counts[key] = d[key]
    return counts


def _fit_counts(args, kwargs, model):
    return {"iterations": model.report.iterations,
            "halvings": model.report.halvings}


def _solve_counts(args, kwargs, report):
    return {"iterations": report.iterations, "halvings": report.halvings}


def _load_counts(args, kwargs, sample):
    path = kwargs.get("path", args[0] if args else None)
    return {"rows": sample.n_rows, "bytes_read": os.path.getsize(path)}


def _write_counts(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes_written": os.path.getsize(path)}


# (module, public function, counts taken from its result). The layers are the
# package's modules; the functions are those README.md's per-layer table names.
TRACED = (
    ("simulation", "generate_population", None),
    ("weights", "estimate_weights_pl", _weight_counts),
    ("weights", "estimate_weights_sr", _weight_counts),
    ("weights", "estimate_weights_ps", _weight_counts),
    ("weights", "estimate_weights_cl", _weight_counts),
    ("fitters", "fit_weighted_logistic", _fit_counts),
    ("fitters", "fit_multinomial", _fit_counts),
    ("fitters", "fit_simplex_regression", _fit_counts),
    ("solver", "solve_estimating_equation", _solve_counts),
    ("variance", "vcov_pl", None),
    ("variance", "vcov_cl", None),
    ("variance", "vcov_known_weights", None),
    ("dataio", "load_dataset", _load_counts),
    ("dataio", "load_population_summary", None),
)
CALLERS = ("simulation", "cli", "weights", "fitters", "variance", "dataio")


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name, op, parent):
        self.name, self.op, self.parent = name, op, parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts = {}

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_seconds(self):
        return self.seconds - self.child_s


class Tracer:
    """Collects spans; ``op`` tags each span with the operation that caused it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._op, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.seconds

    @contextmanager
    def span(self, name, op):
        """The root span of one operation."""
        self._op = op
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Interpose span-recording wrappers on every traced function."""
        patches = []
        for module, name, count in TRACED:
            original = getattr(importlib.import_module(f"selweight.{module}"), name)
            wrapper = self._wrap(f"{module}.{name}", original, count)
            for caller in CALLERS:
                namespace = importlib.import_module(f"selweight.{caller}")
                if getattr(namespace, name, None) is original:
                    patches.append((namespace, name, original))
                    setattr(namespace, name, wrapper)
        table = importlib.import_module("selweight.dataio").ResultTable
        patches.append((table, "write", table.write))
        table.write = self._wrap("dataio.ResultTable.write", table.write,
                                 _write_counts)
        try:
            yield self
        finally:
            for namespace, name, original in reversed(patches):
                setattr(namespace, name, original)


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, count_ops):
    """Per-layer metrics from recorded spans.

    ``.s`` and ``.self_s`` are medians per call. ``.s_per_op`` is a layer's
    total time divided by the number of traced operations: where one layer
    serves calls of very different sizes (a 4-row fit table and an
    18,000-row weights table), the median call hides the large ones and this
    does not. Counts are totals over the spans of operations
    ``0 .. count_ops - 1``, a fixed block, so two runs on one seed give
    identical counts.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    n_ops = len({span.op for span in spans})
    metrics = {}
    for name, group in by_name.items():
        metrics[f"{name}.s"] = _median([s.seconds for s in group])
        metrics[f"{name}.s_per_op"] = sum(s.seconds for s in group) / n_ops
        if group[0].parent is None:
            metrics[f"{name}.self_s"] = _median([s.self_seconds for s in group])
        totals = defaultdict(int)
        for span in group:
            if span.op < count_ops:
                for key, value in span.counts.items():
                    totals[key] += value
        for key, value in totals.items():
            metrics[f"{name}.{key}"] = value

    solves = by_name.get("solver.solve_estimating_equation", [])
    iterations = metrics.pop("solver.solve_estimating_equation.iterations", 0)
    halvings = metrics.pop("solver.solve_estimating_equation.halvings", 0)
    if solves:
        metrics["solver.newton_iterations"] = iterations
        metrics["solver.step_halvings"] = halvings
        # Each iteration accepts one trial step; each halving rejects one.
        trials = iterations + halvings
        metrics["solver.accepted_step_ratio"] = iterations / trials if trials else 0.0

    logistic = by_name.get("fitters.fit_weighted_logistic", [])
    logistic_iters = sum(s.counts.get("iterations", 0) for s in logistic)
    if logistic_iters:
        metrics["fitters.fit_weighted_logistic.s_per_iter"] = (
            sum(s.seconds for s in logistic) / logistic_iters)
    loads = by_name.get("dataio.load_dataset", [])
    load_s = sum(s.seconds for s in loads)
    if load_s:
        metrics["dataio.load_dataset.rows_per_s"] = (
            sum(s.counts.get("rows", 0) for s in loads) / load_s)
    return metrics
