"""Spans and counts at the layer boundaries, for the traced run only.

The tracer wraps each layer's public functions at the names their callers
bind (``leoroute.experiments.sample_bpp``, ``leoroute.routing.hop_repair``,
...) and restores them afterwards; nothing in the library changes. A span
records name, start, end, parent span and the id of the operation (one
benchmark call) it belongs to. Spans stay in memory until the run ends.
Hooks that fire once per evaluation keep counts only. A binding that no
longer exists is reported as absent and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: Optional[int]


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None
        self._stack: list[int] = []

    def spanned(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result, error = None, None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
                if observe is not None:
                    observe(tracer.counts, result, error)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


# ---------------------------------------------------------------------------
# Observers: counts taken from a call's outcome
# ---------------------------------------------------------------------------


def _points(counts, result, error):
    if error is None:
        counts["constellation.sample_bpp.points"] += int(result.n_sat)


def _route_outcome(counts, result, error):
    counts["routing.routes_attempted"] += 1
    if error is None and not result.interrupted:
        counts["routing.routes_completed"] += 1


def _repair_outcome(counts, result, error):
    if error is None:
        counts["routing.hop_repair.succeeded"] += 1
        counts["routing.repaired_sats"] += len(result)


#: (layer metric, module, attribute path, kind, observer). A span hook yields
#: ``<metric>.calls`` and ``<metric>.self_s``; a count hook yields ``<metric>``.
#: One metric may sit at several bindings; they add up.
HOOKS = (
    ("constellation.sample_bpp", "leoroute.experiments", "sample_bpp", "span", _points),
    ("constellation.sample_bpp", "leoroute.cli", "sample_bpp", "span", _points),
    ("constellation.with_extra_points", "leoroute.constellation",
     "Constellation.with_extra_points", "span", None),
    ("constellation.nearest", "leoroute.routing", "nearest", "span", None),
    ("geometry.from_unit_vector.calls", "leoroute.geometry",
     "SpherePoint.from_unit_vector", "count", None),
    ("geometry.chord_distance.calls", "leoroute.geometry", "chord_distance", "count",
     None),
    ("geometry.chord_distance.calls", "leoroute.routing", "chord_distance", "count",
     None),
    ("analysis.plan_hops", "leoroute.experiments", "plan_hops", "span", None),
    ("analysis.plan_hops", "leoroute.routing", "plan_hops", "span", None),
    ("analysis.plan_hops", "leoroute.cli", "plan_hops", "span", None),
    ("analysis.contact_mean", "leoroute.experiments", "contact_mean", "span", None),
    ("analysis.min_sats_grid_minimum", "leoroute.experiments", "min_sats_grid_minimum",
     "span", None),
    ("routing.route_equal_interval", "leoroute.experiments", "route_equal_interval",
     "span", _route_outcome),
    ("routing.route_equal_interval", "leoroute.cli", "route_equal_interval", "span",
     _route_outcome),
    ("routing.greedy", "leoroute.experiments", "route_min_deflection", "span",
     _route_outcome),
    ("routing.greedy", "leoroute.experiments", "route_max_stepsize", "span",
     _route_outcome),
    ("routing.greedy", "leoroute.cli", "route_min_deflection", "span", _route_outcome),
    ("routing.greedy", "leoroute.cli", "route_max_stepsize", "span", _route_outcome),
    ("routing.hop_repair", "leoroute.routing", "hop_repair", "span", _repair_outcome),
    ("efficiency.efficiency_binomial", "leoroute.experiments", "efficiency_binomial",
     "span", None),
    ("efficiency.efficiency_contour", "leoroute.experiments", "efficiency_contour",
     "span", None),
    ("efficiency.pdf_evals", "leoroute.efficiency", "contact_pdf", "count", None),
    ("quadrature.adaptive_simpson", "leoroute.efficiency", "adaptive_simpson", "span",
     None),
    ("quadrature.adaptive_simpson", "leoroute.analysis", "adaptive_simpson", "span",
     None),
    ("experiments.run_trials", "leoroute.experiments", "run_trials", "span", None),
    ("experiments.make_endpoints.calls", "leoroute.experiments", "make_endpoints",
     "count", None),
    ("experiments.make_endpoints.calls", "leoroute.cli", "make_endpoints", "count",
     None),
    ("cli.main", "leoroute.cli", "main", "span", None),
)


def _resolve(module: str, path: str):
    """(owner, attribute name, raw attribute) of a binding, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every hook for the duration of the block; yield absent bindings."""
    restore = []
    absent = []
    try:
        for metric, module, path, kind, observe in HOOKS:
            found = _resolve(module, path)
            if found is None:
                absent.append(f"{module}.{path}")
                continue
            owner, attr, raw = found
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if kind == "span":
                new = tracer.spanned(metric, fn, observe)
            else:
                new = tracer.counted(metric, fn)
            if isinstance(raw, classmethod):
                new = classmethod(new)
            setattr(owner, attr, new)
            restore.append((owner, attr, raw))
        yield absent
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the collected spans and counts.

    Every metric a hook can produce is present; a layer the workload never
    reached reads 0.
    """
    calls: Counter = Counter(s.name for s in tracer.spans)
    busy: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        busy[span.name] += own
    counts = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    for metric, _, _, kind, _ in HOOKS:
        if kind == "span":
            metrics[f"{metric}.calls"] = (calls[metric], "count")
            metrics[f"{metric}.self_s"] = (busy[metric], "s")
        else:
            metrics[metric] = (counts[metric], "count")
    repairs = calls["routing.hop_repair"]
    attempted = counts["routing.routes_attempted"]
    metrics["constellation.sample_bpp.points"] = (
        counts["constellation.sample_bpp.points"], "count")
    metrics["routing.hop_repair.success_ratio"] = (
        counts["routing.hop_repair.succeeded"] / repairs if repairs else 0.0, "ratio")
    metrics["routing.repaired_sats"] = (counts["routing.repaired_sats"], "count")
    metrics["routing.completed_ratio"] = (
        counts["routing.routes_completed"] / attempted if attempted else 0.0, "ratio")
    return metrics


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write the spans as JSON lines: name, start, end, parent, op."""
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")
