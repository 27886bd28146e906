"""Batch-first execution core: ``run`` / ``run_batch`` / ``error_curves``.

``run`` is the single analysis entry point the CLI, ``explore/``,
``gear/``, ``multiop/`` and ``apps/`` call.  :func:`select_engine` is the
one place an engine is chosen: it starts at the cheapest capable exact
engine (or, with ``simulate=True``, at the shape's simulation engine)
and walks the registry's ``degrades_to`` rungs until one fits the width
and budget, stamping ``degraded_from`` provenance.

``run_batch`` turns N requests into as few vectorised
``analyze_batch`` calls as possible: chain requests sharing a cell
sequence are stacked into one ``(batch, width)`` grid, chunked at
:data:`BATCH_CHUNK` rows with a :class:`~repro.runtime.budget.BudgetMeter`
checked between chunks.  Work that depends only on the cell sequence
(hashing it, its names, its masking verdict, the result template) runs
once per group or per distinct ``cells`` tuple, not once per request.
``engine.batch.*`` obs counters report group count and vectorised
occupancy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import AnalysisError
from ..obs import metrics as _metrics
from ..obs.log import get_logger, log_event
from ..obs.tracing import trace_span
from ..runtime.budget import RunBudget, make_meter
from ..runtime.router import ENGINE_EXHAUSTIVE, EngineDecision, record_decision
from . import backends
from . import diskcache as _diskcache
from .registry import (
    FAMILY_ANALYTICAL,
    FAMILY_SIMULATION,
    OPS_PER_SECOND,
    REGISTRY,
    EngineInfo,
)
from .request import (
    DISTRIBUTION_KINDS,
    KIND_CHAIN,
    AnalysisRequest,
    AnalysisResult,
)

#: Rows per vectorised chunk in ``run_batch``; budget checks happen at
#: chunk boundaries (the library-wide cooperative-cancellation idiom).
BATCH_CHUNK = 1024

_logger = get_logger("engine.executor")

backends.register_builtin_engines()


def _head(request: AnalysisRequest, simulate: bool) -> Tuple[EngineInfo, str]:
    """The rung the engine walk starts from, and why."""
    if simulate:
        if request.block is not None:
            name = "zoo-mc"
        elif request.kind in DISTRIBUTION_KINDS:
            name = "distribution-mc"
        elif request.kind == KIND_CHAIN:
            name = ENGINE_EXHAUSTIVE
        else:
            raise AnalysisError(
                "simulate=True routing applies to chain requests only"
            )
        return REGISTRY.get(name), "simulate=True asks for a simulation"
    candidates = (
        REGISTRY.for_request(request, family=FAMILY_ANALYTICAL, exact=True)
        or REGISTRY.for_request(request, exact=True)
    )
    if not candidates:
        raise AnalysisError(
            f"no exact engine accepts this {request.kind!r} request"
        )
    info = candidates[0]
    return info, (f"cheapest exact {info.family} engine for width "
                  f"{request.width}")


def _enumerates(info: EngineInfo) -> bool:
    return info.exact and info.family == FAMILY_SIMULATION


def _misfit(
    info: EngineInfo,
    request: AnalysisRequest,
    budget: Optional[RunBudget],
) -> Optional[str]:
    """Why the *info* rung cannot answer *request* (``None``: it fits)."""
    if not info.accepts(request):
        return "cannot serve this request"
    limit = info.width_limits.get(request.kind)
    if limit is not None and request.width > limit:
        return f"width {request.width} exceeds its support guard ({limit})"
    cost = info.cost_estimate(request)
    if info.block_cases is not None and cost > info.block_cases:
        return f"{cost:.0f} cases exceed one block ({info.block_cases})"
    if budget is None:
        return None
    if budget.max_cases is not None and _enumerates(info) \
            and cost > budget.max_cases:
        return (f"{cost:.0f} cases exceed the budget's max_cases "
                f"({budget.max_cases})")
    if budget.deadline_s is not None \
            and cost > budget.deadline_s * OPS_PER_SECOND:
        return (f"{cost:.0f} ops would overrun the {budget.deadline_s:g}s "
                f"deadline at ~{OPS_PER_SECOND:.0f} ops/s")
    return None


def select_engine(
    request: AnalysisRequest,
    budget: Optional[RunBudget] = None,
    samples: Optional[int] = None,
    *,
    simulate: bool = False,
) -> EngineDecision:
    """Choose the engine for *request*: the one engine ladder.

    The walk starts at a head rung: with *simulate*, the request
    shape's simulation engine (``exhaustive`` for chains,
    ``distribution-mc`` / ``zoo-mc`` for magnitude and block kinds);
    otherwise the cheapest exact analytical engine (or, when there is
    none, the cheapest exact engine of any family).  From there it
    follows ``EngineInfo.degrades_to[kind]`` while the rung does not
    fit: it refuses the request, the width passes its
    ``width_limits[kind]``, its cost passes ``block_cases``, an exact
    simulation's cost passes the budget's ``max_cases``, or the cost
    passes ``deadline_s * OPS_PER_SECOND``.
    A rung without a ``degrades_to`` entry for the kind is final.
    ``degraded_from`` names the rung directly above the chosen one, and
    a sampling rung's *samples* are clamped to ``max_samples``.
    """
    rung, reason = _head(request, simulate)
    degraded_from: Optional[str] = None
    estimated_cases: Optional[int] = None
    while True:
        fallback = rung.degrades_to.get(request.kind)
        if fallback is None:
            break
        if _enumerates(rung) and rung.accepts(request):
            estimated_cases = int(rung.cost_estimate(request))
        why = _misfit(rung, request, budget)
        if why is None:
            break
        degraded_from, reason = rung.name, f"{rung.name}: {why}"
        rung = REGISTRY.get(fallback)
    if rung.default_samples is not None:
        samples = rung.default_samples if samples is None else samples
        if budget is not None and budget.max_samples is not None:
            samples = min(samples, budget.max_samples)
    else:
        samples = None
    return record_decision(EngineDecision(
        engine=rung.name, reason=reason, degraded_from=degraded_from,
        estimated_cases=estimated_cases, samples=samples,
    ))


def run(
    cell: object = None,
    width: Optional[int] = None,
    p_a: object = 0.5,
    p_b: object = 0.5,
    p_cin: float = 0.5,
    *,
    request: Optional[AnalysisRequest] = None,
    engine: Optional[str] = None,
    simulate: bool = False,
    budget: Optional[RunBudget] = None,
    samples: Optional[int] = None,
    seed: Optional[int] = 0,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[object] = None,
    joints: Optional[Sequence[object]] = None,
    keep_trace: bool = False,
    kind: Optional[str] = None,
) -> AnalysisResult:
    """Answer one analysis question through the registry.

    Accepts either a prebuilt :class:`AnalysisRequest` (via *request*,
    or as the first positional argument) or the library-wide
    ``(cell, width, p_a, p_b, p_cin)`` convention.  *engine* forces a
    registered backend by name; ``simulate=True`` asks for a simulation
    answer routed down the budget-aware degradation ladder instead of
    the analytical default.

    *kind* switches the question itself: one of
    :data:`~repro.engine.request.DISTRIBUTION_KINDS`
    (``"error_distribution"`` / ``"med"`` / ``"mred"`` / ``"wce"``)
    asks for the error's *magnitude* law over the same chain operands
    -- the answer lands in the result's ``med``/``wce``/``mred``/...
    fields.  Default (``None``) keeps the plain P(error) question.
    """
    if request is None and isinstance(cell, AnalysisRequest):
        request, cell = cell, None
    if request is None:
        if cell is None:
            raise AnalysisError("run() needs a cell spec or a request")
        if kind is not None and kind != KIND_CHAIN:
            if kind not in DISTRIBUTION_KINDS:
                raise AnalysisError(
                    f"run(kind=...) understands {KIND_CHAIN!r} and "
                    f"{', '.join(repr(k) for k in DISTRIBUTION_KINDS)}; "
                    f"got {kind!r}"
                )
            if joints is not None or keep_trace:
                raise AnalysisError(
                    "distribution kinds do not support joints/keep_trace"
                )
            request = AnalysisRequest.distribution(
                cell, width, p_a, p_b, p_cin, kind=kind,
            )
        else:
            request = AnalysisRequest.chain(
                cell, width, p_a, p_b, p_cin,
                joints=joints, keep_trace=keep_trace,
            )
    elif kind is not None and kind != request.kind:
        raise AnalysisError(
            f"run(kind={kind!r}) conflicts with the prebuilt request's "
            f"kind {request.kind!r}"
        )

    # Persistent result cache (opt-in via diskcache.configure_result_cache):
    # consulted only for un-forced, un-checkpointed analytical questions,
    # so forced engines, simulations and resumable runs behave as before.
    result_cache = _diskcache.get_result_cache()
    use_result_cache = (
        result_cache is not None and engine is None and not simulate
        and checkpoint_path is None and not resume
    )
    if use_result_cache:
        cached = result_cache.get_result(request)
        if cached is not None:
            if _metrics.is_enabled():
                _metrics.inc("engine.requests")
                _metrics.inc("engine.selected.result-cache")
            return cached

    decision: Optional[EngineDecision] = None
    if engine is None:
        decision = select_engine(request, budget, samples, simulate=simulate)
        engine_name = decision.engine
        if decision.samples is not None:
            samples = decision.samples
    else:
        engine_name = engine

    info = REGISTRY.get(engine_name)
    if not info.accepts(request):
        raise AnalysisError(
            f"engine {engine_name!r} cannot serve this request "
            f"(kind={request.kind}, width={request.width})"
        )

    # The per-backend timer attributes latency to the engine that ran
    # (engine.vectorized.seconds, engine.montecarlo.seconds, ...), so
    # the dashboard can tell a slow backend from a slow batch.
    with _metrics.timed("engine.run"), \
            _metrics.timed(f"engine.{engine_name}.seconds"), \
            trace_span("engine.run", engine=engine_name,
                       kind=request.kind, width=request.width):
        result = info.run(
            request, budget=budget, samples=samples, seed=seed,
            checkpoint_path=checkpoint_path, resume=resume,
            progress=progress, routed=bool(simulate),
        )
    if _metrics.is_enabled():
        _metrics.inc("engine.requests")
        _metrics.inc(f"engine.selected.{engine_name}")

    if decision is not None:
        result = _stamp_decision(result, decision, engine_name)
        log_event(_logger, "engine.run", engine=engine_name,
                  kind=request.kind, width=request.width,
                  degraded_from=decision.degraded_from)
    if use_result_cache:
        result_cache.put_result(request, result)
    return result


def _stamp_decision(
    result: AnalysisResult, decision: EngineDecision, engine_name: str
) -> AnalysisResult:
    """Fold routing provenance into the result (and its manifest)."""
    from dataclasses import replace as _replace

    raw = result.raw
    if decision.degraded_from is not None \
            and getattr(raw, "manifest", None) is not None:
        raw = _replace(
            raw, manifest=_replace(raw.manifest,
                                   degraded_from=decision.degraded_from),
        )
    return _replace(
        result, engine=engine_name, reason=decision.reason,
        degraded_from=decision.degraded_from, raw=raw,
    )


def run_batch(
    requests: Sequence[AnalysisRequest],
    budget: Optional[RunBudget] = None,
    *,
    engine: Optional[str] = None,
    simulate: bool = False,
    samples: Optional[int] = None,
    seed: Optional[int] = 0,
) -> List[Optional[AnalysisResult]]:
    """Answer N requests, vectorising wherever the backend allows.

    Chain requests that share a cell sequence (and need no trace or
    correlation handling) are stacked into one ``analyze_batch`` call
    over a ``(batch, width)`` grid, chunked at :data:`BATCH_CHUNK` rows;
    the *budget* is charged one config per request at chunk boundaries
    and a stop reason leaves the remaining entries ``None`` (the
    positions of completed requests always hold well-formed results).
    Each grouped answer equals ``run(request, engine="vectorized")``
    field for field; a non-finite kernel output raises
    :class:`~repro.core.exceptions.AnalysisError`.
    Everything else falls back to :func:`run` per request.

    *engine*/*simulate*/*samples*/*seed* force the same :func:`run`
    options onto every request (e.g. a Monte-Carlo sweep at a fixed
    seed) instead of the analytical default.
    """
    if engine is not None or simulate or samples is not None:
        # Forced options: every request is a single through run().
        forced: List[Optional[AnalysisResult]] = [None] * len(requests)
        forced_meter = make_meter(budget)
        with _metrics.timed("engine.run_batch"), \
                trace_span("engine.run_batch", requests=len(requests),
                           groups=0):
            for i, request in enumerate(requests):
                if forced_meter.stop_reason() is not None:
                    break
                forced[i] = run(
                    request=request, budget=budget, engine=engine,
                    simulate=simulate, samples=samples, seed=seed,
                )
                forced_meter.charge(configs=1)
        if _metrics.is_enabled():
            _metrics.get_registry().counter(
                "engine.batch.requests").add(len(requests))
        if forced_meter.stop_reason() is not None:
            log_event(_logger, "engine.run_batch.truncated",
                      reason=forced_meter.stop_reason(),
                      done=sum(r is not None for r in forced),
                      total=len(requests))
        return forced
    results: List[Optional[AnalysisResult]] = [None] * len(requests)
    result_cache = _diskcache.get_result_cache()
    cache_hits = 0
    # Bucket by ``cells`` tuple object first: requests built from one
    # cell spec usually share it, so each distinct object is hashed
    # (a Python-level ``__hash__`` per stage) once, not once per request.
    # Buckets then merge into groups by row equality.  Groups run in the
    # order of their first requests, each group's requests in input
    # order, which fixes where a budget stop leaves ``None``.
    buckets: Dict[int, List[int]] = {}
    singles: List[int] = []
    for i, request in enumerate(requests):
        if (request.kind == KIND_CHAIN and request.joints is None
                and not request.keep_trace and request.block is None):
            if result_cache is not None:
                cached = result_cache.get_result(request)
                if cached is not None:
                    results[i] = cached
                    cache_hits += 1
                    continue
            bucket = buckets.get(id(request.cells))
            if bucket is None:
                bucket = buckets[id(request.cells)] = []
            bucket.append(i)
        else:
            singles.append(i)
    merged: Dict[tuple, List[List[int]]] = {}
    for bucket in buckets.values():
        merged.setdefault(requests[bucket[0]].cells, []).append(bucket)
    groups = [
        (cells, parts[0] if len(parts) == 1
         else sorted(i for part in parts for i in part))
        for cells, parts in merged.items()
    ]

    from ..core.vectorized import analyze_batch

    meter = make_meter(budget)
    stopped = False
    vector_points = 0
    with _metrics.timed("engine.run_batch"), \
            trace_span("engine.run_batch", requests=len(requests),
                       groups=len(groups)):
        for cells, indices in groups:
            if stopped:
                break
            cell_list = list(cells)
            out = backends._GroupResults()
            start = 0
            while start < len(indices):
                if meter.stop_reason() is not None:
                    stopped = True
                    break
                step = meter.remaining_configs(BATCH_CHUNK)
                if step == 0:
                    stopped = True
                    break
                chunk = indices[start:start + step]
                start += len(chunk)
                chunk_requests = [requests[i] for i in chunk]
                pa = np.array([r.p_a for r in chunk_requests])
                pb = np.array([r.p_b for r in chunk_requests])
                pc = np.array([r.p_cin for r in chunk_requests])
                with _metrics.timed("engine.vectorized.seconds"):
                    p_success = analyze_batch(
                        cell_list, None, pa, pb, pc, batch=len(chunk),
                    )
                out.fill(results, chunk, chunk_requests, p_success)
                vector_points += len(chunk)
                if result_cache is not None:
                    for i in chunk:
                        result_cache.put_result(requests[i], results[i])
                meter.charge(configs=len(chunk))
        for i in singles:
            if meter.stop_reason() is not None:
                stopped = True
                break
            results[i] = run(request=requests[i], budget=budget)
            meter.charge(configs=1)

    if _metrics.is_enabled():
        registry = _metrics.get_registry()
        registry.counter("engine.batch.requests").add(len(requests))
        registry.counter("engine.batch.groups").add(len(groups))
        registry.counter("engine.batch.vectorized_points").add(vector_points)
        if cache_hits:
            registry.counter("engine.batch.result_cache_hits").add(cache_hits)
        if requests:
            # Occupancy = share of requests served by the vectorised
            # grid rather than one-by-one.
            _metrics.set_gauge("engine.batch.occupancy",
                               vector_points / len(requests))
    if stopped:
        log_event(_logger, "engine.run_batch.truncated",
                  reason=meter.stop_reason(),
                  done=sum(r is not None for r in results),
                  total=len(requests))
    return results


def error_curves(
    cell: object,
    max_width: int,
    p: object = 0.5,
    p_cin: object = 0.5,
) -> np.ndarray:
    """``P(Error)`` of a uniform chain for every width ``1..max_width``.

    One vectorised recursion pass
    (:func:`~repro.core.vectorized.success_by_width`) reports every
    prefix width (optionally over a batch of probability points at once
    -- scalar *p* gives ``(max_width,)``, a ``(batch,)`` *p* gives
    ``(batch, max_width)``).
    """
    from ..core.recursive import resolve_chain
    from ..core.vectorized import success_by_width

    table = resolve_chain(cell, 1)[0]
    with trace_span("engine.error_curves", max_width=max_width):
        return 1.0 - success_by_width(table, max_width, p, p_cin)
