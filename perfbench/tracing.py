"""Per-layer spans for cubeperc, recorded from outside the package.

While a Tracer is installed, every layer function below is replaced by
a wrapper in each cubeperc module that holds a reference to it, so calls
between modules (harness -> embedding -> metrics) are caught where the
caller looks the name up.  Each call becomes a span with its layer,
start, end and parent; a layer's self time is its spans' durations minus
the time covered by their direct children.  Work counters are read from
arguments and results after the span has closed.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from cubeperc import cycles, embedding, harness, metrics, percolation, routing


def _draws(a, k, sm, _):
    if sm.mode != "materialized":
        return {"draws": 0}
    sites = sm.shape.vertex_count if sm.model.has_site_draws else 0
    return {"draws": sm.shape.edge_count + sites}


def _maps_scanned(a, k, result, _):
    # the scanner enumerates every map from the cube into the giant
    sm = a[0]
    labels = _ORIGINALS["metrics.components"](sm)
    return {"maps_scanned": labels.giant_size ** sm.shape.vertex_count}


def _pairs_evaluated(a, k, rep, _):
    if rep.infinite:
        return {"pairs_evaluated": 0}
    if rep.pairs_evaluated is not None:
        return {"pairs_evaluated": rep.pairs_evaluated}
    # exact mode scans every cube edge for D+ and every vertex pair for D-
    shape = a[0].shape
    nv = shape.vertex_count
    return {"pairs_evaluated": shape.edge_count + nv * (nv - 1) // 2}


def _distance(a, k, d, _):
    return {"found": d is not None, "dist_sum": d or 0}


def _route(a, k, tr, _):
    return {"queries": tr.queries, "explored": tr.explored, "found": tr.outcome == routing.FOUND}


def _sweep(a, k, text, _):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
    return {"cells": len(lines), "error_cells": sum(not ln.endswith(",") for ln in lines)}


@dataclass(frozen=True)
class Layer:
    """One traced function, owner.attr, with the counters it emits and
    their units.  count(args, kwargs, result, state) returns counter
    increments, state being what before(args, kwargs) saw at entry; a
    counter named x_frac is emitted as x divided by calls."""

    name: str
    owner: object
    attr: str
    metrics: tuple[tuple[str, str], ...] = ()
    count: Optional[Callable] = None
    before: Optional[Callable] = None


LAYERS = (
    Layer("percolation.sample", percolation, "sample", (("draws", "count"),), _draws),
    Layer(
        "percolation.masks", percolation.PercolationSample, "open_neighbor_masks_array",
        (("cache_hit_frac", "fraction"),),
        lambda a, k, masks, hit: {"cache_hit": hit},
        lambda a, k: a[0]._mask_cache is not None,
    ),
    Layer(
        "metrics.components", metrics, "components",
        (("vertices", "count"), ("n_components", "count")),
        lambda a, k, lab, _: {"vertices": len(lab.labels), "n_components": lab.n_components},
    ),
    Layer("metrics.bfs", metrics, "bfs", (("reached", "count"),),
          lambda a, k, field, _: {"reached": field.reached_count}),
    Layer("metrics.brute_force_min_distortion", metrics, "brute_force_min_distortion",
          (("maps_scanned", "count"),), _maps_scanned),
    Layer("metrics.evaluate_distortion", metrics, "evaluate_distortion",
          (("pairs_evaluated", "count"),), _pairs_evaluated),
    Layer("metrics.bounded_distance", metrics, "bounded_distance",
          (("found_frac", "fraction"), ("dist_sum", "count")), _distance),
    Layer("embedding.build_good_map", embedding, "build_good_map", (("built_frac", "fraction"),),
          lambda a, k, built, _: {"built": isinstance(built, metrics.VertexMap)}),
    Layer("embedding.neighbor_distance_stats", embedding, "neighbor_distance_stats",
          (("pairs", "count"),), lambda a, k, stats, _: {"pairs": stats.pairs}),
    Layer("embedding.mc_open_path_count", embedding, "mc_open_path_count",
          (("trials", "count"),), lambda a, k, counts, _: {"trials": len(counts)}),
    Layer("embedding.analytic_moments", embedding, "analytic_moments"),
    Layer("cycles.find_cycles_near", cycles, "find_cycles_near",
          (("expansions", "count"), ("cycles", "count")),
          lambda a, k, res, _: {"expansions": res.expansions, "cycles": res.count}),
    Layer("routing.local_route", routing, "local_route",
          (("queries", "count"), ("explored", "count"), ("found_frac", "fraction")), _route),
    Layer("routing.audit_locality", routing, "audit_locality",
          (("events", "count"),), lambda a, k, ok, _: {"events": len(a[0].events)}),
    Layer("harness.run_sweep", harness, "run_sweep",
          (("cells", "count"), ("error_cells", "count")), _sweep),
)

# trace.wall_s is the traced repetition's wall time; attributed_frac the
# share of it covered by layer self times; unattributed_s the remainder
# (benchmark glue between layer calls); overhead_s the tracer's own cost
# within trace.wall_s, which falls in the callers' self time
SUMMARY_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.attributed_frac", "fraction"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        for suffix, unit in layer.metrics:
            units[f"{layer.name}.{suffix}"] = unit
    units.update(SUMMARY_METRICS)
    return units


_ORIGINALS: dict[str, Callable] = {layer.name: getattr(layer.owner, layer.attr) for layer in LAYERS}


class Tracer:
    """Spans of one traced repetition, kept in memory."""

    def __init__(self) -> None:
        # (layer, start, end, parent index); end stays nan while open
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.count_s = 0.0  # time spent computing counters
        self.patch_s = 0.0  # time spent installing and removing the wrappers
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _call(self, layer: Layer, fn, args, kwargs):
        state = layer.before(args, kwargs) if layer.before else None
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [layer.name, time.perf_counter(), math.nan, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if layer.count:
            for key, value in layer.count(args, kwargs, result, state).items():
                name = f"{layer.name}.{key}"
                self.counts[name] = self.counts.get(name, 0) + value
            self.count_s += time.perf_counter() - span[2]
        return result

    def _wrap(self, layer: Layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, fn, args, kwargs)

        return traced

    def __enter__(self) -> "Tracer":
        t0 = time.perf_counter()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cubeperc" or name.startswith("cubeperc."))]
        for layer in LAYERS:
            orig = _ORIGINALS[layer.name]
            wrapper = self._wrap(layer, orig)
            if isinstance(layer.owner, type):
                self._patch(layer.owner, layer.attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)
        self.patch_s += time.perf_counter() - t0
        return self

    def _patch(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __exit__(self, *exc) -> None:
        t0 = time.perf_counter()
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        self.patch_s += time.perf_counter() - t0

    def overhead(self, span_cost: float) -> float:
        """The tracer's own cost: span_cost per span plus the time spent
        on counters and on installing and removing the wrappers."""
        return len(self.spans) * span_cost + self.count_s + self.patch_s

    def totals(self) -> dict[str, float]:
        """Raw per-layer sums: calls, self time and counters."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict(self.counts)
        for (layer, start, end, _), child in zip(self.spans, covered):
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + (end - start - child)
        return out


def span_cost(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds one span adds to a call: the median over rounds of the
    per-call difference between a no-op called through a Tracer's
    wrapper and called bare.  Timing many calls in one process keeps
    the machine's drift out of the difference."""
    def noop():
        return None

    costs = []
    for _ in range(rounds):
        traced = Tracer()._wrap(Layer("calibration", None, ""), noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def layer_metrics(totals: dict[str, float], wall: float, overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    out = {}
    attributed = 0.0
    for layer in LAYERS:
        calls = totals.get(f"{layer.name}.calls", 0)
        self_s = totals.get(f"{layer.name}.self_s", 0.0)
        attributed += self_s
        out[f"{layer.name}.calls"] = calls
        out[f"{layer.name}.self_s"] = self_s
        for suffix, _ in layer.metrics:
            if suffix.endswith("_frac"):
                raw = totals.get(f"{layer.name}.{suffix[:-5]}", 0)
                out[f"{layer.name}.{suffix}"] = raw / calls if calls else 0.0
            else:
                out[f"{layer.name}.{suffix}"] = totals.get(f"{layer.name}.{suffix}", 0)
    out["trace.wall_s"] = wall
    out["trace.attributed_frac"] = attributed / wall
    out["trace.unattributed_s"] = wall - attributed
    out["trace.overhead_s"] = overhead
    return out

