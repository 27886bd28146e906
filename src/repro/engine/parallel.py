"""Process-pool fan-out for the batch-first engine layer.

PR 3 made every analysis question a frozen, hashable
:class:`~repro.engine.request.AnalysisRequest` and taught
``run_batch()`` to group them by cell sequence -- which makes sweeps
embarrassingly parallel.  This module is the multi-core half of that
story: ``run_batch(parallelism=...)`` and
``error_curves(parallelism=...)`` shard their grouped request chunks
across a :class:`~concurrent.futures.ProcessPoolExecutor` and merge the
pieces back as if the run had been serial.

Design points (see ``docs/parallelism.md`` for the full narrative):

* **Serialisation boundary** -- workers receive only truth-table
  fingerprints (the eight ``(sum, cout)`` rows plus the cell name) and
  plain float probability vectors.  Stage matrices, transitions and
  NumPy grids are never pickled; each worker rebuilds them through its
  own process-local stage-matrix cache.
* **Bit identity** -- a worker chunk re-enters the very same serial
  code path (``executor.run_batch`` for analytical groups,
  ``executor.run`` for forced-engine singles), so per-request results
  are bit-identical to a serial run, and Monte-Carlo stays seed-stable
  (same manifest fingerprints, same Wilson intervals).
* **Work stealing** -- requests are cut into many more chunks than
  workers (:data:`OVERSUBSCRIBE` per worker), so an uneven chunk cannot
  idle the pool; the executor's queue is the work-stealing deque.
* **Cache merging** -- each chunk reports its stage-matrix LRU
  hit/miss delta; the parent folds it into the process-wide cache via
  :meth:`~repro.engine.cache.StageMatrixCache.merge_stats`, keeping the
  ``engine.cache.*`` counters whole-run-accurate.
* **Budgets** -- deadlines are enforced cooperatively: every chunk
  carries a derived deadline-only budget, and the parent cancels
  pending chunks the moment its own meter expires, so overshoot is
  bounded by one chunk.  ``max_configs`` is admission-controlled in the
  parent.  Budgets capping ``max_samples``/``max_cases`` meter *global*
  totals that independent workers cannot coordinate on, so those runs
  stay serial (:func:`budget_allows_parallel`).
* **Ctrl-C** -- a ``KeyboardInterrupt`` tears the pool down without
  waiting (pending chunks cancelled) and re-raises, preserving the
  PR 2 contract: the CLI flushes checkpoints and exits 130.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import CancelledError, ProcessPoolExecutor, as_completed
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import AnalysisError
from ..obs import metrics as _metrics
from ..obs.log import get_logger, log_event
from ..obs.tracing import get_tracer, graft_spans, trace_span
from ..runtime.budget import (
    STOP_MAX_CASES,
    RunBudget,
    make_meter,
)
from . import segcache as _segcache
from .cache import GLOBAL_CACHE
from .registry import REGISTRY
from .request import KIND_CHAIN, AnalysisRequest, AnalysisResult

#: Engine name the router/executor use for sharded exhaustive enumeration.
PARALLEL_EXHAUSTIVE = "parallel-exhaustive"

#: Chunks submitted per worker: the work-stealing granularity.  More
#: chunks than workers lets fast workers drain the queue while a slow
#: chunk finishes; 4x keeps per-chunk serialisation overhead negligible.
OVERSUBSCRIBE = 4

_logger = get_logger("engine.parallel")


def resolve_jobs(parallelism: object = "auto") -> int:
    """Normalise a ``parallelism`` option to a worker count.

    ``"off"`` / ``None`` / ``0`` / ``1`` mean serial (returns 0);
    ``"auto"`` uses :func:`os.cpu_count`; an integer asks for exactly
    that many workers.  A resolved count below 2 is serial -- a pool of
    one worker only adds IPC overhead.
    """
    if parallelism in ("off", None, False, 0, 1):
        return 0
    if parallelism == "auto":
        n = os.cpu_count() or 1
    else:
        try:
            n = int(parallelism)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise AnalysisError(
                f"parallelism must be 'auto', 'off' or an int, "
                f"got {parallelism!r}"
            ) from None
        if n < 0:
            raise AnalysisError(
                f"parallelism must be >= 0, got {n}"
            )
    return 0 if n < 2 else n


def budget_allows_parallel(budget: Optional[RunBudget]) -> bool:
    """Whether *budget* can be enforced across workers.

    Deadlines (derived per-chunk budgets + parent-side cancellation)
    and ``max_configs`` (parent-side admission control) parallelise;
    ``max_samples`` / ``max_cases`` meter global totals that
    independent workers cannot see, so those runs must stay serial to
    keep the cap exact.
    """
    return budget is None or (
        budget.max_samples is None and budget.max_cases is None
    )


def _cells_payload(
    cells: Sequence[object],
) -> Tuple[Tuple[tuple, str], ...]:
    """The serialisation boundary: fingerprint rows + name per cell."""
    return tuple((t.rows, t.name) for t in cells)  # type: ignore[attr-defined]


def _rebuild_cells(payload: Sequence[Tuple[tuple, str]]):
    from ..core.truth_table import FullAdderTruthTable

    return tuple(FullAdderTruthTable(rows, name) for rows, name in payload)


def _worker_budget(
    budget: Optional[RunBudget], meter
) -> Optional[RunBudget]:
    """Deadline-only budget covering exactly the time left (or None)."""
    if budget is None:
        return None
    remaining = meter.remaining_seconds()
    if remaining is None and budget.memory_hint_mb is None:
        return None
    kwargs: Dict[str, object] = {}
    if remaining is not None:
        # An expired deadline still ships a (tiny) positive value so the
        # worker's first chunk-boundary check stops it immediately.
        kwargs["deadline_s"] = max(remaining, 1e-9)
    if budget.memory_hint_mb is not None:
        kwargs["memory_hint_mb"] = budget.memory_hint_mb
    return RunBudget(**kwargs)  # type: ignore[arg-type]


def _make_pool(jobs: int) -> ProcessPoolExecutor:
    import multiprocessing as mp

    if "fork" in mp.get_all_start_methods():
        ctx = mp.get_context("fork")
    else:  # spawn platforms re-import repro in the worker; also fine
        ctx = mp.get_context()
    return ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)


# -- worker-side entry points (module-level: must pickle) ----------------------


def _run_chunk(payload: Dict[str, object]) -> Dict[str, object]:
    """Execute one chunk of chain requests in a worker process.

    Rebuilds the requests from fingerprints + probability vectors, then
    re-enters the *serial* executor -- ``run_batch`` for analytical
    groups, ``run`` per request when engine/simulate options are forced
    -- so results are bit-identical to a serial run.  Returns results
    plus the chunk's stage-matrix cache delta, its metric-registry delta
    and (optionally) its span trees for parent-side merging.
    """
    from contextlib import ExitStack

    from ..obs.correlate import use_request_id
    from ..obs.tracing import Tracer, use_tracer
    from . import executor

    t0 = time.perf_counter()
    cells = _rebuild_cells(payload["cells"])  # type: ignore[arg-type]
    budget = (RunBudget.from_dict(payload["budget"])  # type: ignore[arg-type]
              if payload.get("budget") else None)
    options: Dict[str, object] = payload.get("options") or {}  # type: ignore[assignment]
    requests = [
        AnalysisRequest.chain(cells, None, pa, pb, pcin,
                              check_masking=masking)
        for pa, pb, pcin, masking in payload["points"]  # type: ignore[union-attr]
    ]
    # Spawn workers start without the parent's process-wide segment
    # cache; installing it from the shipped config keeps the engine
    # choice (and hence provenance) identical across start methods.
    # Fork workers inherit the parent's cache and this is a no-op.
    _segcache.ensure_worker_cache(payload.get("segcache"))  # type: ignore[arg-type]
    seg_cache = _segcache.get_segment_cache()
    seg_before = (seg_cache.stats()["memory"]
                  if seg_cache is not None else None)
    before = GLOBAL_CACHE.stats()

    def compute() -> List[Optional[AnalysisResult]]:
        if options:
            meter = make_meter(budget)
            out: List[Optional[AnalysisResult]] = []
            for request in requests:
                if meter.stop_reason() is not None:
                    out.append(None)
                    continue
                out.append(executor.run(
                    request=request, budget=budget,
                    engine=options.get("engine"),  # type: ignore[arg-type]
                    simulate=bool(options.get("simulate")),
                    samples=options.get("samples"),  # type: ignore[arg-type]
                    seed=options.get("seed", 0),  # type: ignore[arg-type]
                ))
                meter.charge(configs=1)
            return out
        return executor.run_batch(requests, budget=budget)

    tracer = Tracer() if payload.get("trace") else None
    # A fresh registry scoped to the chunk collects this chunk's metric
    # delta in isolation (the forked registry holds stale parent counts,
    # and the parent never sees worker memory anyway); the delta is
    # shipped back and folded in under the parent registry's locks.
    worker_registry = _metrics.MetricsRegistry() if _metrics.is_enabled() \
        else None
    with ExitStack() as stack:
        stack.enter_context(
            use_request_id(payload.get("request_id")))  # type: ignore[arg-type]
        if worker_registry is not None:
            stack.enter_context(_metrics.use_registry(worker_registry))
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
            stack.enter_context(
                trace_span("engine.parallel.chunk",
                           requests=len(requests), pid=os.getpid()))
        results = compute()
    after = GLOBAL_CACHE.stats()
    segment_hits = segment_misses = 0
    if seg_cache is not None and seg_before is not None:
        seg_after = seg_cache.stats()["memory"]
        segment_hits = int(seg_after["hits"]) - int(seg_before["hits"])  # type: ignore[arg-type]
        segment_misses = (int(seg_after["misses"])  # type: ignore[arg-type]
                          - int(seg_before["misses"]))  # type: ignore[arg-type]
    return {
        "results": results,
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
        "segment_hits": segment_hits,
        "segment_misses": segment_misses,
        # engine.cache.* counters travel with the hit/miss delta above
        # (merge_stats mirrors them); exporting them here too would
        # double-count.
        "metrics": (worker_registry.export_state(
            exclude_prefixes=("engine.cache.",))
            if worker_registry is not None else None),
        "spans": tracer.to_dict()["spans"] if tracer is not None else [],
        "pid": os.getpid(),
        "elapsed_s": time.perf_counter() - t0,
    }


def _exhaustive_shard(payload: Dict[str, object]) -> Dict[str, object]:
    """Enumerate one ``a``-axis shard of the exhaustive grid.

    The shard covers operand-``a`` values ``[start, start + count)``
    against *all* ``b`` and ``cin`` values -- the same block geometry as
    the serial enumerator, so summing shard masses in shard order
    reproduces the serial accumulation exactly.
    """
    from ..simulation.exhaustive import _bit_weights
    from ..simulation.functional import ripple_add_array

    t0 = time.perf_counter()
    cells = _rebuild_cells(payload["cells"])  # type: ignore[arg-type]
    width = len(cells)
    pa = list(payload["p_a"])  # type: ignore[call-overload]
    pb = list(payload["p_b"])  # type: ignore[call-overload]
    pc = float(payload["p_cin"])  # type: ignore[arg-type]
    start = int(payload["start"])  # type: ignore[arg-type]
    count = int(payload["count"])  # type: ignore[arg-type]

    values = np.arange(1 << width, dtype=np.int64)
    a, b, cin = np.meshgrid(
        values[start:start + count], values,
        np.array([0, 1], dtype=np.int64), indexing="ij",
    )
    a, b, cin = a.ravel(), b.ravel(), cin.ravel()
    approx = ripple_add_array(list(cells), a, b, cin)
    wrong = approx != (a + b + cin)
    weights = (
        _bit_weights(a, pa, width)
        * _bit_weights(b, pb, width)
        * np.where(cin == 1, pc, 1.0 - pc)
    )
    return {
        "mass": float(weights[wrong].sum()),
        "cases": int(a.size),
        "pid": os.getpid(),
        "elapsed_s": time.perf_counter() - t0,
    }


def _curves_shard(payload: Dict[str, object]) -> np.ndarray:
    """``error_curves`` for one contiguous slice of probability points."""
    from ..core.vectorized import success_by_width

    (table,) = _rebuild_cells(payload["cells"])  # type: ignore[arg-type]
    p = np.asarray(payload["p"], dtype=float)
    p_cin = payload["p_cin"]
    if isinstance(p_cin, (list, tuple)):
        p_cin = np.asarray(p_cin, dtype=float)
    return 1.0 - success_by_width(
        table, int(payload["max_width"]), p, p_cin  # type: ignore[arg-type]
    )


def _tradeoff_weight(payload: Dict[str, object]) -> Dict[str, object]:
    """One power-weight point of the hybrid error/power trade-off."""
    from ..circuits.power import PowerModel
    from ..explore.hybrid_search import optimal_hybrid

    t0 = time.perf_counter()
    cells = _rebuild_cells(payload["cells"])  # type: ignore[arg-type]
    before = GLOBAL_CACHE.stats()
    result = optimal_hybrid(
        list(cells), int(payload["width"]),  # type: ignore[arg-type]
        list(payload["p_a"]), list(payload["p_b"]),  # type: ignore[call-overload]
        float(payload["p_cin"]),  # type: ignore[arg-type]
        power_weight=float(payload["weight"]),  # type: ignore[arg-type]
        power_model=PowerModel(),
    )
    after = GLOBAL_CACHE.stats()
    return {
        "result": result,
        "weight": payload["weight"],
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
        "pid": os.getpid(),
        "elapsed_s": time.perf_counter() - t0,
    }


# -- parent-side orchestration -------------------------------------------------


class _PoolRun:
    """Bookkeeping shared by the fan-out entry points: submits chunks,
    collects completions, merges cache stats and spans, enforces the
    deadline by cancelling pending chunks, and emits the
    ``engine.parallel.*`` metrics."""

    def __init__(self, jobs: int, meter) -> None:
        self.jobs = jobs
        self.meter = meter
        self.pool = _make_pool(jobs)
        self.tracer = get_tracer()
        self.futures: "OrderedDict[object, object]" = OrderedDict()
        self.busy_s = 0.0
        self.chunks_done = 0
        self.cancelled = 0
        self._t0 = time.perf_counter()

    def submit(self, fn, payload: Dict[str, object], tag: object):
        future = self.pool.submit(fn, payload)
        self.futures[future] = tag
        return future

    def completions(self):
        """Yield ``(tag, result_dict)`` as chunks finish.

        After each completion the parent meter is consulted; once it
        reports a stop, every not-yet-started chunk is cancelled
        (cooperative cancellation -- running chunks stop themselves via
        their derived worker budgets).  A ``KeyboardInterrupt`` tears
        the pool down immediately and re-raises.
        """
        try:
            for future in as_completed(list(self.futures)):
                if future.cancelled():
                    continue
                try:
                    out = future.result()
                except CancelledError:
                    continue
                self.chunks_done += 1
                elapsed = out.get("elapsed_s") if isinstance(out, dict) else None
                if elapsed is not None:
                    self.busy_s += float(elapsed)
                    if _metrics.is_enabled():
                        _metrics.observe("engine.parallel.chunk_seconds",
                                         float(elapsed))
                yield self.futures[future], out
                if self.meter.stop_reason() is not None:
                    self.cancel_pending()
        except KeyboardInterrupt:
            self.pool.shutdown(wait=False, cancel_futures=True)
            raise
        except Exception:
            self.pool.shutdown(wait=False, cancel_futures=True)
            raise

    def cancel_pending(self) -> None:
        for future in self.futures:
            if not future.done() and future.cancel():
                self.cancelled += 1

    def graft(self, out: Dict[str, object]) -> None:
        """Merge a chunk's spans into the parent trace, one lane per
        worker PID, aligned to chunk start (= completion - elapsed)."""
        if self.tracer is None or not out.get("spans"):
            return
        offset = self.tracer._now() - float(out["elapsed_s"])  # type: ignore[arg-type]
        graft_spans(out["spans"], thread_id=int(out["pid"]),  # type: ignore[arg-type]
                    offset_s=max(0.0, offset))

    def merge_cache(self, out: Dict[str, object]) -> None:
        GLOBAL_CACHE.merge_stats(int(out.get("hits", 0)),  # type: ignore[arg-type]
                                 int(out.get("misses", 0)))  # type: ignore[arg-type]
        # Segment-tier deltas ride the same lock path, keeping the
        # engine.cache.segment.* counters whole-run-accurate after a
        # parallel fan-out (chunks from pre-segment-cache workers, and
        # the tradeoff/exhaustive shards, simply ship no delta).
        seg_cache = _segcache.get_segment_cache()
        if seg_cache is not None:
            seg_cache.merge_stats(
                int(out.get("segment_hits", 0)),  # type: ignore[arg-type]
                int(out.get("segment_misses", 0)),  # type: ignore[arg-type]
            )

    def merge_metrics(self, out: Dict[str, object]) -> None:
        """Fold a chunk's metric-registry delta into the parent registry
        (counters add; timer/histogram bucket counts add exactly), the
        same parent-side folding as the stage-matrix cache delta."""
        state = out.get("metrics")
        if state and _metrics.is_enabled():
            _metrics.get_registry().merge_state(state)  # type: ignore[arg-type]

    def finish(self, worker_requests: int = 0) -> None:
        self.pool.shutdown(wait=True)
        wall = time.perf_counter() - self._t0
        if _metrics.is_enabled():
            registry = _metrics.get_registry()
            registry.counter("engine.parallel.chunks").add(self.chunks_done)
            registry.counter("engine.parallel.requests").add(worker_requests)
            if self.cancelled:
                registry.counter("engine.parallel.cancelled_chunks").add(
                    self.cancelled)
            _metrics.set_gauge("engine.parallel.workers", self.jobs)
            if wall > 0 and self.jobs > 0:
                _metrics.set_gauge("engine.parallel.occupancy",
                                   self.busy_s / (self.jobs * wall))


def _chunk_sizes(total: int, jobs: int, cap: int) -> int:
    """Target chunk size: oversubscribe the pool, never exceed *cap*."""
    return max(1, min(cap, -(-total // (jobs * OVERSUBSCRIBE))))


def _request_eligible(
    request: AnalysisRequest, engine: Optional[str]
) -> bool:
    """Can *request* run inside a worker process?

    Chain requests with plain (independent) operands qualify; joint
    distributions and trace capture stay in the parent, as does any
    forced engine whose registration is not ``parallel_safe``.
    """
    if (request.kind != KIND_CHAIN or request.joints is not None
            or request.keep_trace or request.block is not None):
        return False
    if engine is not None:
        if engine not in REGISTRY:
            return False  # parent-side run() raises the proper error
        info = REGISTRY.get(engine)
        return info.parallel_safe and info.accepts(request)
    return True


def run_batch_parallel(
    requests: Sequence[AnalysisRequest],
    budget: Optional[RunBudget] = None,
    jobs: int = 2,
    engine: Optional[str] = None,
    simulate: bool = False,
    samples: Optional[int] = None,
    seed: Optional[int] = 0,
) -> List[Optional[AnalysisResult]]:
    """Answer N requests across *jobs* worker processes.

    The parallel twin of :func:`repro.engine.executor.run_batch` (which
    is what callers actually invoke -- with ``parallelism=...`` -- and
    which delegates here).  Grouping mirrors the serial path: chain
    requests sharing a cell sequence are sharded into work-stealing
    chunks; requests a worker cannot serve (correlated operands, trace
    capture, non-chain kinds, engines that are not ``parallel_safe``)
    run serially in the parent afterwards, under the same meter.
    """
    from . import executor  # late: executor imports this module too

    results: List[Optional[AnalysisResult]] = [None] * len(requests)
    meter = make_meter(budget)
    options: Dict[str, object] = {}
    if engine is not None:
        options["engine"] = engine
    if simulate:
        options["simulate"] = True
    if samples is not None:
        options["samples"] = samples
    if options:
        options["seed"] = seed

    groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
    parent_side: List[int] = []
    for i, request in enumerate(requests):
        if _request_eligible(request, engine):
            groups.setdefault(request.cells, []).append(i)
        else:
            parent_side.append(i)

    eligible_total = sum(len(v) for v in groups.values())
    # Admission control for max_configs: never submit more work than
    # the budget's remainder (completions still charge the meter).
    allowed = meter.remaining_configs(eligible_total)
    from .executor import BATCH_CHUNK

    chunk_size = _chunk_sizes(max(allowed, 1), jobs, BATCH_CHUNK)
    trace_active = get_tracer() is not None
    # Contextvars do not cross the process boundary: the correlation ID
    # rides in each chunk payload and is re-scoped worker-side.
    from ..obs.correlate import current_request_id

    request_id = current_request_id()
    worker_done = 0
    stopped = allowed < eligible_total

    with _metrics.timed("engine.run_batch"), \
            trace_span("engine.run_batch", requests=len(requests),
                       groups=len(groups), jobs=jobs):
        run_state = _PoolRun(jobs, meter)
        try:
            budget_doc = None
            worker_budget = _worker_budget(budget, meter)
            if worker_budget is not None:
                budget_doc = worker_budget.as_dict()
            segcache_doc = _segcache.export_config(
                _segcache.get_segment_cache())
            quota = allowed
            for cells, indices in groups.items():
                if quota <= 0:
                    break
                cells_doc = _cells_payload(cells)
                for start in range(0, len(indices), chunk_size):
                    if quota <= 0:
                        break
                    chunk = indices[start:start + chunk_size][:quota]
                    quota -= len(chunk)
                    payload = {
                        "cells": cells_doc,
                        "points": [
                            (requests[i].p_a, requests[i].p_b,
                             requests[i].p_cin, requests[i].check_masking)
                            for i in chunk
                        ],
                        "budget": budget_doc,
                        "options": options,
                        "segcache": segcache_doc,
                        "trace": trace_active,
                        "request_id": request_id,
                    }
                    run_state.submit(_run_chunk, payload, tuple(chunk))
            for chunk, out in run_state.completions():
                chunk_results = out["results"]
                done = 0
                for j, i in enumerate(chunk):
                    if chunk_results[j] is not None:
                        results[i] = chunk_results[j]
                        done += 1
                worker_done += done
                meter.charge(configs=done)
                run_state.merge_cache(out)
                run_state.merge_metrics(out)
                run_state.graft(out)
                if done < len(chunk):
                    stopped = True
        finally:
            run_state.finish(worker_requests=worker_done)

        for i in parent_side:
            if meter.stop_reason() is not None:
                stopped = True
                break
            results[i] = executor.run(
                request=requests[i], budget=budget, engine=engine,
                simulate=simulate, samples=samples, seed=seed,
            )
            meter.charge(configs=1)

    if run_state.cancelled or meter.stop_reason() is not None:
        stopped = True
    if _metrics.is_enabled():
        registry = _metrics.get_registry()
        registry.counter("engine.batch.requests").add(len(requests))
        registry.counter("engine.batch.groups").add(len(groups))
    if stopped:
        log_event(_logger, "engine.run_batch.truncated",
                  reason=meter.stop_reason(),
                  done=sum(r is not None for r in results),
                  total=len(requests), jobs=jobs)
    return results


def parallel_exhaustive(
    request: AnalysisRequest,
    jobs: int = 0,
    budget: Optional[RunBudget] = None,
    progress: Optional[object] = None,
) -> AnalysisResult:
    """Sharded weighted exhaustive enumeration of one chain request.

    Splits the ``2^(2N+1)`` grid along the ``a`` axis into the same
    blocks the serial enumerator uses and fans them out; shard masses
    are summed in shard order, so a complete run reproduces the serial
    ``exhaustive_report`` mass bit-for-bit.  A deadline cancels pending
    shards; the visited mass is then a *lower bound* on ``P(Error)``
    and the result is flagged ``truncated`` with the stop reason.
    """
    from ..simulation.exhaustive import (
        MAX_EXHAUSTIVE_WIDTH,
        _block_step,
    )
    from . import backends

    width = request.width
    if width > MAX_EXHAUSTIVE_WIDTH:
        raise AnalysisError(
            f"exhaustive enumeration of a {width}-bit adder would visit "
            f"2^{2 * width + 1} cases; the router degrades such queries "
            "to Monte-Carlo instead"
        )
    jobs = jobs or resolve_jobs("auto") or 1
    meter = make_meter(budget)
    step = _block_step(width, budget)
    values = 1 << width
    per_a = 1 << (width + 1)
    total_cases = 1 << (2 * width + 1)
    max_cases = budget.max_cases if budget is not None else None

    cells_doc = _cells_payload(request.cells)
    shard_mass: Dict[int, float] = {}
    shard_cases: Dict[int, int] = {}
    submitted_cases = 0

    with _metrics.timed("engine.parallel_exhaustive"), \
            trace_span("engine.parallel_exhaustive", width=width,
                       cases=total_cases, jobs=jobs):
        run_state = _PoolRun(jobs, meter)
        try:
            for shard_index, start in enumerate(range(0, values, step)):
                count = min(step, values - start)
                if max_cases is not None \
                        and submitted_cases + count * per_a > max_cases \
                        and submitted_cases > 0:
                    break
                submitted_cases += count * per_a
                run_state.submit(_exhaustive_shard, {
                    "cells": cells_doc,
                    "p_a": request.p_a, "p_b": request.p_b,
                    "p_cin": request.p_cin,
                    "start": start, "count": count,
                }, shard_index)
            for shard_index, out in run_state.completions():
                shard_mass[shard_index] = float(out["mass"])  # type: ignore[arg-type]
                shard_cases[shard_index] = int(out["cases"])  # type: ignore[arg-type]
                meter.charge(cases=int(out["cases"]))  # type: ignore[arg-type]
        finally:
            run_state.finish(worker_requests=len(shard_mass))

    # Shard-order summation matches the serial block accumulation.
    mass = 0.0
    for shard_index in sorted(shard_mass):
        mass += shard_mass[shard_index]
    cases_done = sum(shard_cases.values())
    truncated = cases_done < total_cases
    stop_reason = meter.stop_reason() if truncated else None
    if truncated and stop_reason is None:
        stop_reason = STOP_MAX_CASES
    if _metrics.is_enabled():
        _metrics.get_registry().counter(
            "simulation.exhaustive.cases").add(cases_done)
    return backends._chain_result(
        request, 1.0 - mass, PARALLEL_EXHAUSTIVE, True,
        cases=cases_done, truncated=truncated,
        stop_reason=stop_reason,
    )


def error_curves_parallel(
    table: object,
    max_width: int,
    p: object,
    p_cin: object,
    jobs: int,
) -> np.ndarray:
    """Shard a batched ``error_curves`` probability grid across workers.

    Rows (probability points) are split into contiguous slices; the
    vectorised recursion is elementwise along the batch axis, so
    re-concatenating the slices is bit-identical to one big call.
    """
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    pc_arr = np.asarray(p_cin, dtype=float)
    pc_batched = pc_arr.ndim == 1
    total = p_arr.shape[0]
    chunk = _chunk_sizes(total, jobs, total)
    cells_doc = _cells_payload([table])
    meter = make_meter(None)

    pieces: Dict[int, np.ndarray] = {}
    with _metrics.timed("engine.error_curves"), \
            trace_span("engine.error_curves", max_width=max_width,
                       points=total, jobs=jobs):
        run_state = _PoolRun(jobs, meter)
        try:
            for shard_index, start in enumerate(range(0, total, chunk)):
                stop = min(start + chunk, total)
                run_state.submit(_curves_shard, {
                    "cells": cells_doc,
                    "max_width": max_width,
                    "p": p_arr[start:stop].tolist(),
                    "p_cin": (pc_arr[start:stop].tolist() if pc_batched
                              else float(pc_arr)),
                }, shard_index)
            for shard_index, out in run_state.completions():
                pieces[shard_index] = np.asarray(out)
        finally:
            run_state.finish(worker_requests=total)
    return np.concatenate([pieces[i] for i in sorted(pieces)], axis=0)


def tradeoff_results_parallel(
    cells: Sequence[object],
    width: int,
    p_a: Sequence[float],
    p_b: Sequence[float],
    p_cin: float,
    weights: Sequence[float],
    jobs: int,
    meter,
) -> Tuple[Dict[float, object], int]:
    """Evaluate ``optimal_hybrid`` per power weight across workers.

    Returns ``(weight -> HybridSearchResult, cancelled_count)``; the
    caller (:func:`repro.explore.hybrid_search.hybrid_tradeoff_curve`)
    assembles the Pareto front and manifest so serial and parallel
    sweeps share one reporting path.  Worker cache deltas are merged;
    a deadline cancels the weights still pending.
    """
    cells_doc = _cells_payload(cells)
    answers: Dict[float, object] = {}
    with trace_span("explore.hybrid.tradeoff", weights=len(weights),
                    jobs=jobs):
        run_state = _PoolRun(jobs, meter)
        try:
            for weight in weights:
                run_state.submit(_tradeoff_weight, {
                    "cells": cells_doc, "width": width,
                    "p_a": tuple(p_a), "p_b": tuple(p_b), "p_cin": p_cin,
                    "weight": float(weight),
                }, float(weight))
            for weight, out in run_state.completions():
                answers[weight] = out["result"]
                run_state.merge_cache(out)
                run_state.graft(out)
        finally:
            run_state.finish(worker_requests=len(answers))
    return answers, run_state.cancelled
