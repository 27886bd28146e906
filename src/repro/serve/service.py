"""Protocol-agnostic batching core of the analysis service.

:class:`AnalysisService` owns the micro-batching pipeline the HTTP layer
(:mod:`repro.serve.http`) feeds:

* ``submit()`` enqueues one normalised
  :class:`~repro.engine.request.AnalysisRequest` and awaits its answer;
* a single dispatcher task drains the queue in micro-batches -- up to
  ``max_batch`` requests, waiting at most ``batch_window_s`` for
  companions -- and hands each batch to :func:`repro.engine.run_batch`,
  so N concurrent clients share one vectorised chunk instead of N
  scalar runs;
* the queue is bounded (``queue_limit``); a full queue sheds the new
  request immediately with :class:`OverloadedError` (HTTP 429 upstream)
  instead of building unbounded latency;
* per-request deadlines become one deadline-only
  :class:`~repro.runtime.budget.RunBudget` per batch (the tightest
  waiting deadline), reusing the engines' cooperative cancellation, and
  requests that expire while queued fail with :class:`DeadlineError`
  without costing any engine time;
* ``drain()`` implements graceful shutdown: stop accepting, finish what
  is queued, give up after a grace period.

Engine dispatch is additionally wrapped in a
:class:`~repro.runtime.breaker.CircuitBreaker` (``breaker_failures``
consecutive dispatch failures open it; 503 + ``Retry-After`` upstream
while open; a ``SupportLimitError`` is a typed refusal, not a failure)
and a failed batch is isolated: each member re-runs alone once, so one
poisoned request costs only its own client its answer instead of
failing every batch-mate, and a transient fault does not fail a request
that was dispatched alone.  A solo batch refused with
``SupportLimitError`` is deterministic and goes straight to its 422.

Obs metrics: ``serve.enqueued`` / ``serve.shed`` / ``serve.expired`` /
``serve.batches`` / ``serve.batched_requests`` /
``serve.batch_isolated`` counters, the ``serve.queue_depth`` and
``serve.batch_size`` gauges, the ``serve.batch_seconds`` timer around
each engine dispatch, and the ``serve.breaker.*`` family from the
circuit breaker.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Dict, List, Optional

from .. import engine
from ..core.exceptions import AnalysisError, ReproError, SupportLimitError
from ..engine.request import AnalysisRequest, AnalysisResult
from ..obs import metrics as _metrics
from ..obs.correlate import current_request_id, use_request_id
from ..obs.log import get_logger, log_event
from ..obs.slo import RollingRatio
from ..runtime import chaos as _chaos
from ..runtime.breaker import CircuitBreaker
from ..runtime.budget import RunBudget
from .config import ServeConfig

_logger = get_logger("serve.service")

#: Upper bound accepted for a client-supplied ``deadline_s``.
MAX_DEADLINE_S = 3600.0


class OverloadedError(ReproError):
    """The bounded request queue is full; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float):
        super().__init__(
            f"request queue is full; retry after {retry_after_s:.3f}s"
        )
        self.retry_after_s = retry_after_s


class DeadlineError(ReproError):
    """The request's deadline expired before an answer was produced."""


class ClosingError(ReproError):
    """The service is draining and accepts no new work."""


class RequestParseError(ReproError):
    """The request document could not be turned into an AnalysisRequest."""


def parse_analysis_doc(doc: object) -> AnalysisRequest:
    """Normalise one ``/v1/analyze`` JSON document.

    Accepted shapes (exactly one chain spelling):

    * ``{"cell": "LPAA 1", "width": 8, ...}`` -- uniform chain;
    * ``{"cells": ["LPAA 7", "LPAA 7", "LPAA 1"], ...}`` -- per-stage;
    * ``{"spec": "LPAA7:4, LPAA1:4", ...}`` -- hybrid spec string;
    * ``{"adder": "loa:16:8", ...}`` -- a named zoo adder config
      (:mod:`repro.core.adder_zoo`); always adds with carry-in 0.

    ``p_a`` / ``p_b`` are a scalar or per-stage list (default 0.5),
    ``p_cin`` a scalar (default 0.5).  ``kind`` switches the question
    from plain P(error) (the default, ``"chain"``) to one of the
    error-magnitude kinds (``"error_distribution"`` / ``"med"`` /
    ``"mred"`` / ``"wce"``); the answer document then carries the
    matching ``med``/``wce``/... fields.  Anything malformed raises
    :class:`RequestParseError` (HTTP 400) *before* the request is
    queued, so bad input never costs engine time.
    """
    from ..engine.request import DISTRIBUTION_KINDS, KIND_CHAIN

    if not isinstance(doc, dict):
        raise RequestParseError(
            f"request body must be a JSON object, got {type(doc).__name__}"
        )
    unknown = set(doc) - {"cell", "cells", "spec", "adder", "width",
                          "p_a", "p_b", "p_cin", "deadline_s", "kind"}
    if unknown:
        raise RequestParseError(
            f"unknown request fields: {', '.join(sorted(map(str, unknown)))}"
        )
    kind = doc.get("kind", KIND_CHAIN)
    if kind != KIND_CHAIN and kind not in DISTRIBUTION_KINDS:
        raise RequestParseError(
            f"unknown kind {kind!r}; known: {KIND_CHAIN}, "
            f"{', '.join(DISTRIBUTION_KINDS)}"
        )
    spellings = [name for name in ("cell", "cells", "spec", "adder")
                 if doc.get(name)]
    if len(spellings) != 1:
        raise RequestParseError(
            'exactly one of "cell", "cells", "spec" or "adder" is required'
        )
    spelling = spellings[0]
    if spelling == "adder":
        if float(doc.get("p_cin", 0.0) or 0.0) != 0.0:
            raise RequestParseError(
                "named adders add with carry-in 0; leave p_cin unset"
            )
        try:
            return AnalysisRequest.zoo(
                str(doc["adder"]),
                p_a=doc.get("p_a", 0.5),
                p_b=doc.get("p_b", 0.5),
                kind=kind,
            )
        except ReproError as exc:
            raise RequestParseError(str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise RequestParseError(f"malformed request: {exc}") from exc
    width = doc.get("width")
    if spelling == "cell":
        if width is None:
            raise RequestParseError('"cell" requires an integer "width"')
        chain, chain_width = doc["cell"], int(width)
    elif spelling == "cells":
        cells = doc["cells"]
        if not isinstance(cells, list) or not cells:
            raise RequestParseError('"cells" must be a non-empty list')
        chain, chain_width = list(cells), None
    else:
        from ..core.hybrid import HybridChain

        try:
            chain, chain_width = HybridChain.from_spec(str(doc["spec"])), None
        except ReproError as exc:
            raise RequestParseError(f"bad chain spec: {exc}") from exc
    try:
        if kind != KIND_CHAIN:
            return AnalysisRequest.distribution(
                chain, chain_width,
                p_a=doc.get("p_a", 0.5),
                p_b=doc.get("p_b", 0.5),
                p_cin=doc.get("p_cin", 0.5),
                kind=kind,
            )
        return AnalysisRequest.chain(
            chain, chain_width,
            p_a=doc.get("p_a", 0.5),
            p_b=doc.get("p_b", 0.5),
            p_cin=doc.get("p_cin", 0.5),
        )
    except ReproError as exc:
        raise RequestParseError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise RequestParseError(f"malformed request: {exc}") from exc


def parse_deadline(doc: object, default_s: Optional[float]) -> Optional[float]:
    """Client ``deadline_s`` (bounded), falling back to the configured one."""
    deadline = doc.get("deadline_s") if isinstance(doc, dict) else None
    if deadline is None:
        return default_s
    try:
        deadline = float(deadline)
    except (TypeError, ValueError):
        raise RequestParseError(
            f"deadline_s must be a number, got {deadline!r}"
        ) from None
    if not 0.0 < deadline <= MAX_DEADLINE_S:
        raise RequestParseError(
            f"deadline_s must be in (0, {MAX_DEADLINE_S:.0f}], got {deadline}"
        )
    return deadline


def result_to_doc(result: AnalysisResult) -> Dict[str, object]:
    """The JSON answer document for one finished analysis.

    Plain P(error) answers keep their original seven-field shape;
    error-magnitude answers additionally carry ``kind``, the populated
    metric fields (``med``/``nmed``/``mse``/``wce``/``mred``/``bias``),
    and -- for ``error_distribution`` questions -- the full
    ``distribution`` PMF as ``[[delta, probability], ...]``.
    """
    from ..engine.request import KIND_CHAIN

    doc: Dict[str, object] = {
        "p_error": result.p_error,
        "p_success": result.p_success,
        "engine": result.engine,
        "exact": result.exact,
        "width": result.width,
        "cells": list(result.cell_names),
        "is_upper_bound": result.is_upper_bound,
    }
    if result.kind != KIND_CHAIN:
        doc["kind"] = result.kind
        for name in ("med", "nmed", "mse", "wce", "mred", "bias"):
            value = getattr(result, name)
            if value is not None:
                doc[name] = value
        if result.distribution is not None:
            doc["distribution"] = result.distribution.to_lists()
        if result.interval is not None:
            doc["interval"] = list(result.interval)
        if result.samples is not None:
            doc["samples"] = result.samples
    return doc


class _Pending:
    """One queued request: the future its client awaits plus its deadline."""

    __slots__ = ("request", "future", "deadline_at", "request_id")

    def __init__(self, request: AnalysisRequest,
                 future: "asyncio.Future[AnalysisResult]",
                 deadline_at: Optional[float],
                 request_id: Optional[str] = None):
        self.request = request
        self.future = future
        self.deadline_at = deadline_at
        self.request_id = request_id

    def remaining(self, now: float) -> Optional[float]:
        if self.deadline_at is None:
            return None
        return self.deadline_at - now


class AnalysisService:
    """Coalesces concurrent analysis requests into engine micro-batches."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue(
            maxsize=self.config.queue_limit
        )
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._closing = False
        self._started = False
        self._batches = 0
        self._served = 0
        self._shed = 0
        # Rolling window of admission outcomes (True = shed) feeding
        # the /healthz shed-rate SLO -- cumulative counters cannot tell
        # "shed a lot an hour ago" from "shedding right now".
        self._shed_window = RollingRatio()
        self._isolated = 0
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            reset_timeout_s=self.config.breaker_reset_s,
            half_open_max=self.config.breaker_half_open_max,
            metric_prefix="serve.breaker",
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Mount the result cache and start the dispatcher task."""
        if self._started:
            return
        if self.config.cache_dir is not None:
            engine.configure_result_cache(
                self.config.cache_dir,
                memory_entries=self.config.memory_cache_entries,
                max_disk_entries=self.config.max_disk_entries,
            )
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )
        self._started = True
        log_event(_logger, "serve.start",
                  max_batch=self.config.max_batch,
                  queue_limit=self.config.queue_limit,
                  cache_dir=self.config.cache_dir)

    @property
    def draining(self) -> bool:
        return self._closing

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish the queue, stop.

        Waits up to ``drain_grace_s`` for queued work to finish; whatever
        is still pending afterwards fails with :class:`ClosingError`.
        """
        self._closing = True
        if self._dispatcher is None:
            return
        try:
            await asyncio.wait_for(self._queue.join(),
                                   timeout=self.config.drain_grace_s)
        except asyncio.TimeoutError:
            log_event(_logger, "serve.drain.timeout",
                      pending=self._queue.qsize())
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        self._dispatcher = None
        while not self._queue.empty():
            pending = self._queue.get_nowait()
            self._queue.task_done()
            if not pending.future.done():
                pending.future.set_exception(
                    ClosingError("service shut down before this request ran")
                )
        log_event(_logger, "serve.drain.done",
                  served=self._served, batches=self._batches)

    # -- request path ------------------------------------------------------

    async def submit(
        self,
        request: AnalysisRequest,
        deadline_s: Optional[float] = None,
    ) -> AnalysisResult:
        """Queue one request and await its engine answer.

        Raises :class:`ClosingError` while draining,
        :class:`~repro.runtime.breaker.BreakerOpenError` while the
        engine circuit breaker is open (HTTP 503 upstream),
        :class:`OverloadedError` when the bounded queue is full and
        :class:`DeadlineError` when *deadline_s* elapses first.
        """
        if self._closing:
            raise ClosingError("service is draining; no new work accepted")
        if not self._started:
            raise AnalysisError("AnalysisService.start() has not run")
        self.breaker.check()
        loop = asyncio.get_running_loop()
        deadline_at = (loop.time() + deadline_s
                       if deadline_s is not None else None)
        pending = _Pending(request, loop.create_future(), deadline_at,
                           request_id=current_request_id())
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self._shed += 1
            self._shed_window.record(True)
            if _metrics.is_enabled():
                _metrics.inc("serve.shed")
            raise OverloadedError(self.config.retry_after_s) from None
        self._shed_window.record(False)
        if _metrics.is_enabled():
            _metrics.inc("serve.enqueued")
            _metrics.set_gauge("serve.queue_depth", self._queue.qsize())
        if deadline_s is None:
            return await pending.future
        try:
            return await asyncio.wait_for(
                asyncio.shield(pending.future), timeout=deadline_s
            )
        except asyncio.TimeoutError:
            pending.future.cancel()
            raise DeadlineError(
                f"no answer within the {deadline_s:.3f}s deadline"
            ) from None

    # -- dispatcher --------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            if self.config.max_batch > 1 and self.config.batch_window_s > 0:
                window_ends = loop.time() + self.config.batch_window_s
                while len(batch) < self.config.max_batch:
                    timeout = window_ends - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        batch.append(await asyncio.wait_for(
                            self._queue.get(), timeout=timeout))
                    except asyncio.TimeoutError:
                        break
            else:
                while (len(batch) < self.config.max_batch
                       and not self._queue.empty()):
                    batch.append(self._queue.get_nowait())
            if _metrics.is_enabled():
                _metrics.set_gauge("serve.queue_depth", self._queue.qsize())
            try:
                await self._run_batch(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()

    async def _run_batch(self, batch: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: List[_Pending] = []
        expired = 0
        for pending in batch:
            if pending.future.done():
                continue  # client went away (deadline fired in submit)
            remaining = pending.remaining(now)
            if remaining is not None and remaining <= 0:
                expired += 1
                pending.future.set_exception(DeadlineError(
                    "deadline expired while queued"
                ))
                continue
            live.append(pending)
        if expired and _metrics.is_enabled():
            _metrics.inc("serve.expired", expired)
        if not live:
            return
        deadlines = [p.remaining(now) for p in live]
        tightest = min((d for d in deadlines if d is not None), default=None)
        budget = RunBudget.for_deadline(tightest)
        requests = [p.request for p in live]
        # One correlation ID represents the whole micro-batch in engine
        # spans: the (only) member's ID for a
        # solo batch, else the first member's ID tagged with the count.
        member_ids = [p.request_id for p in live if p.request_id]
        if not member_ids:
            batch_id = None
        elif len(live) == 1:
            batch_id = member_ids[0]
        else:
            batch_id = f"{member_ids[0]}+{len(live) - 1}"
        run = functools.partial(engine.run_batch, requests, budget)

        def runner():
            # Contextvars do not propagate into executor threads; the
            # correlation ID must be re-scoped inside the callable.
            with use_request_id(batch_id):
                _chaos.engine_call_check("serve.batch")
                return run()

        try:
            with _metrics.timed("serve.batch_seconds"):
                results = await loop.run_in_executor(None, runner)
        except Exception as exc:  # engine bug: fail the batch, not the server
            log_event(_logger, "serve.batch.failed",
                      size=len(live), error=repr(exc))
            if len(live) == 1 and isinstance(exc, SupportLimitError):
                # Deterministic: a re-run would refuse it again (422).
                self._record_error(exc)
                if not live[0].future.done():
                    live[0].future.set_exception(exc)
                return
            if len(live) > 1:
                # A solo batch's outcome is its re-run's, recorded there,
                # so one request does not count twice against the breaker.
                self._record_error(exc)
            await self._isolate_batch(live)
            return
        if any(result is not None for result in results):
            self.breaker.record_success()
        else:
            # Every member blew its deadline inside the engine -- from
            # the callers' seats that is indistinguishable from a wedged
            # dependency, so it counts against the breaker too.
            self.breaker.record_failure()
        self._batches += 1
        if _metrics.is_enabled():
            _metrics.inc("serve.batches")
            _metrics.inc("serve.batched_requests", len(live))
            _metrics.set_gauge("serve.batch_size", len(live))
            # Distribution of batch occupancy, not just the last value:
            # the dashboard's coalescing-health signal.
            _metrics.observe_histogram("serve.batch_occupancy", len(live))
        for pending, result in zip(live, results):
            if pending.future.done():
                continue
            if result is None:
                pending.future.set_exception(DeadlineError(
                    "engine budget exhausted before this request ran"
                ))
            else:
                self._served += 1
                pending.future.set_result(result)

    def _record_error(self, exc: Exception) -> None:
        """Breaker outcome of a dispatch that raised *exc*.

        A :class:`~repro.core.exceptions.SupportLimitError` is the
        engine's typed refusal of one question too large for its exact
        DP (HTTP 422), not a sick engine, so it does not extend the
        failure streak.
        """
        if isinstance(exc, SupportLimitError):
            self.breaker.record_success()
        else:
            self.breaker.record_failure()

    async def _isolate_batch(self, live: List[_Pending]) -> None:
        """Re-run each member of a failed batch alone.

        One poisoned request must cost exactly one client its request;
        batch-mates that happened to share the micro-batch get their
        answers from a solo re-dispatch, and so does the member of a
        failed solo batch, so a transient fault does not fail a request
        that happened to arrive alone.  Each re-run records its own
        breaker outcome, so a genuinely sick engine still accumulates a
        failure streak while a single bad request does not.
        """
        loop = asyncio.get_running_loop()
        self._isolated += 1
        if _metrics.is_enabled():
            _metrics.inc("serve.batch_isolated")
        log_event(_logger, "serve.batch.isolated", size=len(live))
        for pending in live:
            if pending.future.done():
                continue
            remaining = pending.remaining(loop.time())
            if remaining is not None and remaining <= 0:
                pending.future.set_exception(DeadlineError(
                    "deadline expired during batch isolation"
                ))
                continue
            run_solo = functools.partial(
                engine.run_batch, [pending.request],
                RunBudget.for_deadline(remaining),
            )
            request_id = pending.request_id

            def runner():
                with use_request_id(request_id):
                    _chaos.engine_call_check("serve.isolate")
                    return run_solo()

            try:
                results = await loop.run_in_executor(None, runner)
            except Exception as exc:
                self._record_error(exc)
                if not pending.future.done():
                    pending.future.set_exception(exc)
                continue
            self.breaker.record_success()
            if pending.future.done():
                continue
            if results[0] is None:
                pending.future.set_exception(DeadlineError(
                    "engine budget exhausted before this request ran"
                ))
            else:
                self._served += 1
                pending.future.set_result(results[0])

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """JSON-ready service statistics for ``/metrics`` and tests."""
        doc: Dict[str, object] = {
            "served": self._served,
            "batches": self._batches,
            "shed": self._shed,
            "isolated": self._isolated,
            "recent_shed_rate": self._shed_window.rate(),
            "queue_depth": self._queue.qsize(),
            "draining": self._closing,
            "mean_batch_size": (self._served / self._batches
                                if self._batches else 0.0),
            "breaker": {
                "enabled": self.breaker.enabled,
                "state": self.breaker.state,
                "opened_total": self.breaker.opened_total,
            },
        }
        cache = engine.get_result_cache()
        if cache is not None:
            doc["result_cache"] = cache.stats()
        return doc
