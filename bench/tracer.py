"""Per-layer spans and counters, recorded from outside the program.

Each layer function is replaced, under the name its caller looks it up by,
with a wrapper that records a span (name, parent span, start, end) and the
counts the benchmark reports for it; the originals are put back afterwards.
A span's self time is its duration minus the union of its children's
intervals, so the self times of an op's spans add up to its traced wall time.

Peak allocation comes from a separate pass with tracemalloc running only
inside the two functions that report it, so it does not slow the timed spans.
The worker imports it only when tracing, so the process that runs the timed
(untraced) ops never loads it.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import time
import tracemalloc
from collections import defaultdict


def _householder_counts(args, kwargs, result):
    m, k = args[0].shape
    return {"bytes_computed": 8 * (m * m + m * k), "flops_computed": 4 * m * m * k}


# (module, attribute the caller looks up, layer name, counter or None)
WRAPPED = (
    ("cli", "validate_dataset", "model.validate_dataset",
     lambda a, k, r: {"observations": len(r), "groups": len(r.groups)}),
    ("cli", "_atomic_write", "cli.write",
     lambda a, k, r: {"bytes": len(a[1].encode("utf-8"))}),
    ("ingest", "load_party_csv", "ingest.load_party_csv", lambda a, k, r: {"rows": len(r)}),
    ("ingest", "load_pageviews_csv", "ingest.load_pageviews_csv",
     lambda a, k, r: {"rows": sum(len(s.daily) for s in r)}),
    ("features", "window_sums_from_series", "features.window_sums_from_series", None),
    ("features", "build_feature_rows", "features.build_feature_rows", None),
    ("forecast", "fit_model", "forecast.fit_model", None),
    ("forecast", "build_design_matrix", "forecast.build_design_matrix", None),
    ("forecast", "attention_dynamics", "forecast.attention_dynamics", None),
    ("forecast", "ols_fit", "stats.ols_fit", lambda a, k, r: {"rows": a[0].n}),
    ("forecast", "pearson", "stats.pearson", None),
    ("stats", "pearson", "stats.pearson", None),
    ("stats", "householder_qr", "stats.householder_qr", _householder_counts),
    ("stats", "student_t_two_sided_p", "stats.student_t_two_sided_p", None),
)
# window_views runs once per observation; it is counted, not spanned. Its count
# is computed: each call scans the page's whole series.
COUNTED = (("features", "window_views", "features.window_sums_from_series.days_scanned",
            lambda a, k, r: len(a[0].daily)),)
PEAK_ALLOC = (("ingest", "load_pageviews_csv", "ingest.load_pageviews_csv.peak_alloc_mb"),
              ("stats", "householder_qr", "stats.householder_qr.peak_alloc_mb"))


class Tracer:
    """Spans and counts of one thread: every traced op runs on the worker's main thread."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, counter=None):
        parent = self._stack[-1] if self._stack else None
        span_id = next(self._ids)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.counts[f"{name}.failed"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))
            self.counts[f"{name}.calls"] += 1
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                self.counts[f"{name}.{key}"] += value
        return result

    def take(self) -> tuple[list, dict]:
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


class Patches:
    """Replaces module attributes and puts the originals back on close()."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.saved: list[tuple[object, str, object]] = []

    def set(self, module: str, attr: str, make):
        mod = self.modules[module]
        original = getattr(mod, attr)
        self.saved.append((mod, attr, original))
        setattr(mod, attr, functools.wraps(original)(make(original)))

    def close(self):
        for mod, attr, original in reversed(self.saved):
            setattr(mod, attr, original)
        self.saved.clear()


def install_spans(modules: dict, tracer: Tracer) -> Patches:
    patches = Patches(modules)

    def spanned(name, counter):
        return lambda fn: lambda *a, **k: tracer.call(name, fn, a, k, counter)

    def counted(key, counter):
        def make(fn):
            def wrapper(*a, **k):
                result = fn(*a, **k)
                tracer.counts[key] += counter(a, k, result)
                return result
            return wrapper
        return make

    def root(fn):
        return lambda argv, *a, **k: tracer.call(f"cli.{argv[0]}", fn, (argv, *a), k)

    for module, attr, name, counter in WRAPPED:
        patches.set(module, attr, spanned(name, counter))
    for module, attr, key, counter in COUNTED:
        patches.set(module, attr, counted(key, counter))
    patches.set("cli", "main", root)
    return patches


def install_peaks(modules: dict, peaks: dict) -> Patches:
    patches = Patches(modules)

    def make(key):
        def wrap(fn):
            def wrapper(*a, **k):
                tracemalloc.start()
                try:
                    return fn(*a, **k)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    peaks[key] = max(peaks.get(key, 0.0), peak / 2**20)
            return wrapper
        return wrap

    for module, attr, key in PEAK_ALLOC:
        patches.set(module, attr, make(key))
    return patches


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list) -> tuple[dict, list[float]]:
    """Busy and self seconds per span name, the names of root spans (the cli.<command>
    calls), and sum(self)/wall for each root span."""
    children = defaultdict(list)
    for span_id, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    busy, self_time = defaultdict(float), defaultdict(float)
    self_of = {}
    for span_id, parent, name, start, end in spans:
        own = (end - start) - _union_length(children.get(span_id, []), start, end)
        busy[name] += end - start
        self_time[name] += own
        self_of[span_id] = (parent, own)

    def root_of(span_id):
        while self_of[span_id][0] is not None:
            span_id = self_of[span_id][0]
        return span_id

    per_root = defaultdict(float)
    for span_id, (_, own) in self_of.items():
        per_root[root_of(span_id)] += own
    walls = {span_id: end - start for span_id, parent, _, start, end in spans if parent is None}
    ratios = [per_root[r] / walls[r] for r in walls if walls[r] > 0]
    roots = {name for _, parent, name, _, _ in spans if parent is None}
    return {"busy": busy, "self": self_time, "roots": roots}, ratios


def traced_run(loop, spec: dict) -> dict:
    """Alternating untraced and traced cycles, then a tracemalloc pass.

    Returns per-layer metrics, each per cycle of the workload's ops (times are
    medians over the traced cycles, counts come from the same cycles), for the
    layers the workload reached; the failed calls per layer; the number of
    traced cycles; and the median over ops of sum(self times) / op wall time:
    1 when the spans cover the op without overlapping.
    Alternating the two kinds of cycle exposes both to the same host speed, so
    their difference is the tracing overhead.
    """
    from wikivote import cli, features, forecast, ingest, stats

    modules = {"cli": cli, "features": features, "forecast": forecast,
               "ingest": ingest, "stats": stats}
    tracer = Tracer()
    per_cycle: list[dict] = []
    ratios: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []

    def on_cycle():
        spans, counts = tracer.take()
        times, op_ratios = summarize(spans)
        ratios.extend(op_ratios)
        per_cycle.append({**times, "counts": counts})

    deadline = time.perf_counter() + spec["seconds"]
    while not traced or time.perf_counter() < deadline:
        untraced += loop.cycles(0.0)
        patches = install_spans(modules, tracer)
        try:
            traced += loop.cycles(0.0, on_cycle)
        finally:
            patches.close()

    # tracemalloc slows every allocation, so this pass stops at the first op after
    # which each function in PEAK_ALLOC that the traced cycles called has run once
    counted = {key for c in per_cycle for key in c["counts"]}
    needed = {key for _, _, key in PEAK_ALLOC
              if key.replace(".peak_alloc_mb", ".calls") in counted}
    peaks: dict[str, float] = {}
    patches = install_peaks(modules, peaks)
    try:
        for op in loop.ops:
            loop.op(op, timed=False)
            if needed <= peaks.keys():
                break
    finally:
        patches.close()

    def med(kind: str, key: str) -> float:
        return statistics.median(c[kind].get(key, 0.0) for c in per_cycle)

    metrics: dict[str, float] = {}
    for name in sorted({name for c in per_cycle for name in c["busy"]}):
        metrics[f"{name}.s"] = med("busy", name)
        if any(name in c["roots"] for c in per_cycle):
            metrics[f"{name}.self_s"] = med("self", name)
    failures = {key: med("counts", key) for key in counted if key.endswith(".failed")}
    for key in counted - set(failures):
        metrics[key] = med("counts", key)
    metrics.update(peaks)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"metrics": metrics, "failures": failures, "cycles": len(traced),
            "self_sum_ratio": statistics.median(ratios)}
