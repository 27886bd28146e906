"""Per-layer attribution for the traced run.

Layers are measured from outside the library: the traced run switches
on ``repro.obs`` metrics, installs an in-memory ``Tracer``, and wraps a
few public calls (:func:`wrap_public_calls`) so that engine selection
and the two cache tiers get spans and timers of their own.  In-process
workloads are attributed from the span tree; ``serve-mixed`` from the
server's ``GET /metrics`` timers and counters.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping

#: Every per-layer metric a traced run reports, with its unit.  Layers a
#: workload never reaches report 0.
PER_LAYER_UNITS = {
    "core.vectorized.busy_s": "s",
    "core.vectorized.rows_per_call": "count",
    "engine.run_batch.busy_s": "s",
    "engine.run_batch.groups_per_request": "ratio",
    "engine.batch.occupancy": "ratio",
    "engine.select.busy_s": "s",
    "core.recursive.busy_s": "s",
    "runtime.router.degraded": "count",
    "engine.distribution.busy_s": "s",
    "engine.zoo.busy_s": "s",
    "engine.cache.hit_ratio": "ratio",
    "engine.diskcache.busy_s": "s",
    "engine.diskcache.hit_ratio": "ratio",
    "engine.diskcache.disk_writes": "count",
    "engine.segcache.busy_s": "s",
    "engine.segcache.hit_ratio": "ratio",
    "engine.segcache.disk_writes": "count",
    "serve.http.handler_p50_ms": "ms",
    "serve.http.non2xx": "count",
    "serve.service.batch_busy_s": "s",
    "serve.service.batch_occupancy_mean": "count",
    "serve.service.wait_s": "s",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "wall_s": "s",
    "unattributed_s": "s",
}
#: Layers whose self time (busy time minus the busy time of the layers
#: it calls) is reported as ``self.<layer>_s``.
SELF_LAYERS = ("serve.service", "engine.run_batch", "engine.select",
               "engine.run", "engine.distribution", "engine.zoo",
               "engine.diskcache", "core.vectorized", "core.recursive",
               "core.transfer", "simulation")
PER_LAYER_UNITS.update({f"self.{layer}_s": "s" for layer in SELF_LAYERS})

SELECT_TIMER = "perfbench.engine.select"
RESULT_GET_TIMER = "perfbench.result_cache.get"
#: ``get_result`` calls that ``run_batch`` makes itself while grouping,
#: before its own ``engine.run_batch`` timer starts.
RESULT_GROUPING_GET_TIMER = "perfbench.result_cache.get_while_grouping"
RESULT_PUT_TIMER = "perfbench.result_cache.put"
SEGMENT_TIMER = "perfbench.segment_cache.success_probability"
#: The benchmark's span around each ``run_batch`` call: the library's
#: own ``engine.run_batch`` span starts after request grouping.
CALL_SPAN = "engine.run_batch.call"


def _wrapped(fn, name: str):
    from repro.obs import metrics, trace_span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with metrics.timed(name), trace_span(name):
            return fn(*args, **kwargs)

    return wrapper


def _wrapped_lookup(fn):
    """``get_result`` timed as :data:`RESULT_GROUPING_GET_TIMER` when
    ``run_batch`` calls it directly, else as :data:`RESULT_GET_TIMER`
    (``run``'s lookups, which fall inside ``run_batch``'s timer)."""
    from repro.engine import executor
    from repro.obs import metrics, trace_span

    grouping = executor.run_batch.__code__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = (RESULT_GROUPING_GET_TIMER
                if sys._getframe(1).f_code is grouping else RESULT_GET_TIMER)
        with metrics.timed(name), trace_span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def wrap_public_calls() -> Iterator[None]:
    """Time ``select_engine`` and the result/segment cache entry points.

    ``run`` looks ``select_engine`` up in its module at call time, so
    replacing the module attribute is enough; the cache methods are
    replaced on their classes.  Everything is restored on exit.
    """
    from repro.engine import ResultCache, SegmentCache, executor

    patches = [
        (executor, "select_engine",
         lambda fn: _wrapped(fn, SELECT_TIMER)),
        (ResultCache, "get_result", _wrapped_lookup),
        (ResultCache, "put_result",
         lambda fn: _wrapped(fn, RESULT_PUT_TIMER)),
        (SegmentCache, "success_probability",
         lambda fn: _wrapped(fn, SEGMENT_TIMER)),
    ]
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in patches]
    try:
        for owner, attr, wrap in patches:
            setattr(owner, attr, wrap(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _layer_of(name: str, attrs: Mapping[str, object]) -> str:
    if name == "engine.run":
        engine = str(attrs.get("engine", ""))
        if engine.startswith("distribution-"):
            return "engine.distribution"
        if engine.startswith("zoo-"):
            return "engine.zoo"
        return "engine.run"
    if name == SELECT_TIMER:
        return "engine.select"
    if name in (RESULT_GET_TIMER, RESULT_GROUPING_GET_TIMER,
                RESULT_PUT_TIMER):
        return "engine.diskcache"
    if name == SEGMENT_TIMER:
        return "core.transfer"
    for prefix in ("engine.run_batch", "core.vectorized", "core.recursive",
                   "core.transfer", "simulation"):
        if name.startswith(prefix):
            return prefix
    return "other"


def span_attribution(roots: List[object], wall_s: float
                     ) -> Dict[str, float]:
    """Busy time, self time and counts per layer from a span forest."""
    busy: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    rows = calls = groups = requests = 0

    def visit(span, parent_layer: str) -> None:
        nonlocal rows, calls, groups, requests
        layer = _layer_of(span.name, span.attrs)
        children = sum(child.duration_s for child in span.children)
        self_time[layer] = self_time.get(layer, 0.0) + max(
            0.0, span.duration_s - children)
        if layer != parent_layer:  # nested spans of one layer count once
            busy[layer] = busy.get(layer, 0.0) + span.duration_s
        if span.name == "core.vectorized.analyze_batch":
            rows += int(span.attrs.get("batch", 0))
            calls += 1
        elif span.name == "engine.run_batch":
            groups += int(span.attrs.get("groups", 0))
            requests += int(span.attrs.get("requests", 0))
        for child in span.children:
            visit(child, layer)

    for root in roots:
        visit(root, "")
    covered = sum(root.duration_s for root in roots)
    out = {
        "core.vectorized.busy_s": busy.get("core.vectorized", 0.0),
        "core.vectorized.rows_per_call": rows / calls if calls else 0.0,
        "engine.run_batch.busy_s": busy.get("engine.run_batch", 0.0),
        "engine.run_batch.groups_per_request":
            groups / requests if requests else 0.0,
        "engine.select.busy_s": busy.get("engine.select", 0.0),
        "core.recursive.busy_s": busy.get("core.recursive", 0.0),
        "engine.distribution.busy_s": busy.get("engine.distribution", 0.0),
        "engine.zoo.busy_s": busy.get("engine.zoo", 0.0),
        "engine.diskcache.busy_s": busy.get("engine.diskcache", 0.0),
        "engine.segcache.busy_s": busy.get("core.transfer", 0.0),
        "wall_s": wall_s,
        "unattributed_s": max(0.0, wall_s - covered),
    }
    for layer in SELF_LAYERS:
        out[f"self.{layer}_s"] = self_time.get(layer, 0.0)
    return out


def registry_counts(snapshot: Mapping[str, object]) -> Dict[str, float]:
    """Ratios and counts read from an obs metrics snapshot."""
    counters = snapshot.get("counters", {})
    hits = counters.get("engine.cache.hits", 0)
    misses = counters.get("engine.cache.misses", 0)
    requests = counters.get("engine.batch.requests", 0)
    grouped = (counters.get("engine.batch.vectorized_points", 0)
               + counters.get("engine.batch.segment_points", 0))
    return {
        "engine.cache.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "engine.batch.occupancy": grouped / requests if requests else 0.0,
        "runtime.router.degraded": counters.get("runtime.router.degraded", 0),
    }


def _timer_total(timers: Mapping[str, Mapping[str, float]], name: str
                 ) -> float:
    return float(timers.get(name, {}).get("total_s", 0.0))


def serve_attribution(final: Mapping[str, object],
                      phase1: Mapping[str, object],
                      wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one server from its ``/metrics`` documents.

    *phase1* is the scrape after the open-loop phase (its handler p50 is
    the one that explains ``latency_p50_ms``), *final* the scrape after
    saturation.  Self times follow the single dispatcher, the serial
    resource: a micro-batch's time splits into the service's own work,
    ``run_batch`` bookkeeping, the segment path, and per-request
    ``engine.run`` calls; the phases' wall time not covered by batches
    is the unattributed remainder (event loop, HTTP, idle).
    """
    timers = final.get("timers", {})
    counters = final.get("counters", {})
    histograms = final.get("histograms", {})
    service = final.get("service", {})
    out = registry_counts(final)

    batch = _timer_total(timers, "serve.batch_seconds")
    run_batch = _timer_total(timers, "engine.run_batch")
    runs = _timer_total(timers, "engine.run")
    segment = _timer_total(timers, SEGMENT_TIMER)
    vectorized = _timer_total(timers, "engine.vectorized.seconds")
    dist = sum(_timer_total(timers, name) for name in timers
               if name.startswith("engine.distribution-"))
    zoo = sum(_timer_total(timers, name) for name in timers
              if name.startswith("engine.zoo-"))
    # Result-cache calls inside run_batch's timer (run's lookups, every
    # put) and the lookups run_batch makes while grouping, before it.
    cache_io = (_timer_total(timers, RESULT_GET_TIMER)
                + _timer_total(timers, RESULT_PUT_TIMER))
    grouping_io = _timer_total(timers, RESULT_GROUPING_GET_TIMER)
    handlers = (_timer_total(timers, "serve.http.analyze.seconds")
                + _timer_total(timers, "serve.http.analyze_batch.seconds"))
    occupancy = histograms.get("serve.batch_occupancy", {})
    select = _timer_total(timers, SELECT_TIMER)

    result_cache = service.get("result_cache", {})
    memory = result_cache.get("memory", {})
    disk = result_cache.get("disk", {})
    lookups = memory.get("hits", 0) + memory.get("misses", 0)
    segments = service.get("segment_cache", {})
    seg_memory = segments.get("memory", {})
    seg_lookups = seg_memory.get("hits", 0) + seg_memory.get("misses", 0)

    out.update({
        "core.vectorized.busy_s": _timer_total(
            timers, "core.vectorized.analyze_batch"),
        "core.vectorized.rows_per_call": _rows_per_call(timers, counters),
        "engine.run_batch.busy_s": run_batch,
        "engine.run_batch.groups_per_request":
            counters.get("engine.batch.groups", 0)
            / max(1, counters.get("engine.batch.requests", 0)),
        "engine.select.busy_s": select,
        "core.recursive.busy_s": _timer_total(
            timers, "core.recursive.analyze_chain"),
        "engine.distribution.busy_s": dist,
        "engine.zoo.busy_s": zoo,
        "engine.diskcache.busy_s": cache_io + grouping_io,
        "engine.diskcache.hit_ratio":
            (memory.get("hits", 0) + disk.get("hits", 0)) / lookups
            if lookups else 0.0,
        "engine.diskcache.disk_writes": disk.get("writes", 0),
        "engine.segcache.busy_s": segment,
        "engine.segcache.hit_ratio":
            seg_memory.get("hits", 0) / seg_lookups if seg_lookups else 0.0,
        "engine.segcache.disk_writes":
            segments.get("disk", {}).get("writes", 0),
        "serve.http.handler_p50_ms": 1000.0 * float(
            phase1.get("timers", {}).get("serve.http.analyze.seconds", {})
            .get("p50_s", 0.0)),
        "serve.http.non2xx": sum(
            value for name, value in counters.items()
            if name.startswith("serve.http.status.")
            and not name.rsplit(".", 1)[-1].startswith("2")),
        "serve.service.batch_busy_s": batch,
        "serve.service.batch_occupancy_mean":
            float(occupancy.get("mean", 0.0)),
        "serve.service.wait_s": max(0.0, handlers - batch),
        "wall_s": wall_s,
        "unattributed_s": max(0.0, wall_s - batch),
    })
    # engine.run's timer excludes selection and the result-cache calls
    # around it, and run_batch's timer excludes its grouping lookups, so
    # these terms partition the batch time.
    selfs = {
        "serve.service": batch - run_batch - grouping_io,
        "engine.run_batch": (run_batch - runs - select - cache_io
                             - segment - vectorized),
        "engine.select": select,
        "engine.run": runs - dist - zoo,
        "engine.distribution": dist,
        "engine.zoo": zoo,
        "engine.diskcache": cache_io + grouping_io,
        "core.vectorized": vectorized,
        "core.recursive": _timer_total(timers,
                                       "core.recursive.analyze_chain"),
        "core.transfer": segment,
        "simulation": 0.0,
    }
    for layer in SELF_LAYERS:
        out[f"self.{layer}_s"] = max(0.0, selfs[layer])
    return out


def _rows_per_call(timers, counters) -> float:
    calls = timers.get("core.vectorized.analyze_batch", {}).get("count", 0)
    points = counters.get("engine.batch.vectorized_points", 0)
    return points / calls if calls else 0.0
