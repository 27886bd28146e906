"""Asyncio HTTP/JSON front-end of the analysis service (stdlib only).

A deliberately small HTTP/1.1 implementation -- request line, headers,
``Content-Length`` bodies, keep-alive -- is all the four endpoints need:

========================  =====================================================
``POST /v1/analyze``      one chain question -> one answer document
``POST /v1/analyze_batch``  ``{"requests": [...]}`` -> per-item answers/errors
``GET /healthz``          liveness + drain state (503 while draining)
``GET /metrics``          obs metrics snapshot + service/cache statistics
========================  =====================================================

Error mapping: parse failures are 400, a question whose exact DP
outgrows its support guard (:class:`~repro.core.exceptions.SupportLimitError`)
is 422 with the guard's ``width``/``entries``/``limit``/``stage`` in the
error document, per-client admission refusals
and queue overload are 429 with a ``Retry-After`` header, expired
deadlines are 504, and a draining server or an open circuit breaker
answers 503 (breaker refusals also carry ``Retry-After``).  Every
``Retry-After`` value passes :func:`format_retry_after`, which clamps
it positive and finite.  See ``docs/serving.md`` for the operator
guide and ``docs/robustness.md`` for the failure-path contracts.

:class:`AnalysisServer` hosts the service either *inside* an existing
event loop (``start_async``/``stop_async``, used by the CLI runner) or
on a background thread with a synchronous ``start()``/``stop()`` pair --
the form tests, doctests, benchmarks and notebooks want.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from .. import engine
from ..core.exceptions import SupportLimitError
from ..obs import metrics as _metrics
from ..obs.accesslog import AccessLog
from ..obs.correlate import new_request_id, use_request_id
from ..obs.log import get_logger, log_event
from ..obs.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from ..obs.prometheus import render_prometheus
from ..obs.slo import evaluate_slo
from ..runtime.breaker import BreakerOpenError
from .admission import AdmissionController, client_key
from .config import ServeConfig
from .service import (
    AnalysisService,
    ClosingError,
    DeadlineError,
    OverloadedError,
    RequestParseError,
    parse_analysis_doc,
    parse_deadline,
    result_to_doc,
)

_logger = get_logger("serve.http")

#: Largest accepted request body (a batch of a few thousand questions).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: How much of an oversized body we are willing to read-and-discard to
#: keep the connection synchronised; beyond this the connection closes.
_MAX_DRAIN_BYTES = 64 * 1024 * 1024

#: Hard cap on headers per request (defensive; we only read a handful).
_MAX_HEADERS = 64

#: Clamp range for every Retry-After value we emit: always positive
#: (a zero tells clients to hammer us) and never absurd.
_RETRY_AFTER_MIN_S = 0.001
_RETRY_AFTER_MAX_S = 3600.0


def format_retry_after(seconds: object) -> str:
    """*seconds* as a ``Retry-After`` header value, clamped sane.

    Whatever upstream hands us -- negative, zero, ``inf``, ``nan`` or
    garbage -- the emitted value is positive and finite, because a
    malformed backoff hint turns a polite client into a battering ram.
    """
    try:
        value = float(seconds)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        value = _RETRY_AFTER_MIN_S
    if not math.isfinite(value):
        value = _RETRY_AFTER_MAX_S
    value = min(max(value, _RETRY_AFTER_MIN_S), _RETRY_AFTER_MAX_S)
    return f"{value:.3f}"

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Content", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """Routing-level failure carrying its HTTP status.

    ``recoverable=True`` means the parser stayed synchronised with the
    byte stream (the offending request was fully consumed), so the
    keep-alive connection survives and pipelined successors still get
    answers; ``False`` means we cannot trust our position and the
    connection closes after the error response.
    """

    def __init__(self, status: int, message: str,
                 headers: Sequence[Tuple[str, str]] = (),
                 recoverable: bool = False,
                 details: Optional[Dict[str, object]] = None):
        super().__init__(message)
        self.status = status
        self.headers = tuple(headers)
        self.recoverable = recoverable
        self.details = details or {}


class _HttpRequest:
    __slots__ = ("method", "path", "query", "headers", "body", "keep_alive",
                 "request_id", "peername")

    def __init__(self, method: str, path: str, headers: Dict[str, str],
                 body: bytes, keep_alive: bool):
        self.method = method
        self.path, _, self.query = path.partition("?")
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive
        self.request_id: Optional[str] = None
        self.peername: Optional[tuple] = None

    def wants_prometheus(self) -> bool:
        """Content negotiation: does the client prefer text exposition?

        ``Accept: text/plain`` (what Prometheus scrapers and ``curl -H``
        send) or ``?format=prometheus`` selects the text format; the
        default stays the JSON snapshot ``sealpaa obs`` consumes.
        """
        if "format=prometheus" in self.query:
            return True
        accept = self.headers.get("accept", "")
        return "text/plain" in accept or "openmetrics" in accept


async def _read_request(reader: asyncio.StreamReader) -> Optional[_HttpRequest]:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, path, version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "too many headers")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _HttpError(400, f"bad Content-Length: {length_text!r}") from None
    if length > MAX_BODY_BYTES:
        # Read-and-discard the oversized body (bounded) so the stream
        # stays synchronised and pipelined requests behind it survive.
        recoverable = length <= _MAX_DRAIN_BYTES
        if recoverable:
            remaining = length
            while remaining > 0:
                chunk = await reader.read(min(remaining, 1 << 16))
                if not chunk:
                    recoverable = False
                    break
                remaining -= len(chunk)
        raise _HttpError(413, f"body over {MAX_BODY_BYTES} bytes",
                         recoverable=recoverable)
    body = await reader.readexactly(length) if length else b""
    connection = headers.get("connection", "").lower()
    keep_alive = connection != "close" and version.strip().endswith("1.1")
    return _HttpRequest(method.upper(), path, headers, body, keep_alive)


class _RawText:
    """A pre-rendered non-JSON response body with its content type."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str):
        self.text = text
        self.content_type = content_type


def _encode_response(
    status: int,
    doc: object,
    keep_alive: bool,
    extra_headers: Sequence[Tuple[str, str]] = (),
) -> bytes:
    if isinstance(doc, _RawText):
        payload = doc.text.encode("utf-8")
        content_type = doc.content_type
    else:
        payload = (json.dumps(doc) + "\n").encode()
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


def _error_doc(status: int, message: str,
               **details: object) -> Dict[str, object]:
    return {"error": {"code": status, "message": message, **details}}


def _support_limit_details(exc: SupportLimitError) -> Dict[str, object]:
    """The guard context a client needs to re-ask (narrower, sampled)."""
    return {"width": exc.width, "entries": exc.entries,
            "limit": exc.limit, "stage": exc.stage}


class AnalysisServer:
    """The HTTP server around one :class:`AnalysisService`."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.service = AnalysisService(self.config)
        self.admission = AdmissionController(
            rate_rps=self.config.rate_limit_rps,
            burst=self.config.rate_limit_burst,
        )
        self.access_log: Optional[AccessLog] = (
            AccessLog(self.config.access_log,
                      max_bytes=self.config.access_log_max_bytes,
                      backups=self.config.access_log_backups)
            if self.config.access_log else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._port: Optional[int] = None
        self._metrics_were_enabled = False
        # Background-thread hosting state (sync start()/stop()).
        self._thread: Optional[threading.Thread] = None
        self._thread_loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread_stop: Optional[asyncio.Event] = None
        self._thread_error: Optional[BaseException] = None
        self._ready = threading.Event()

    # -- addresses ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` after start)."""
        if self._port is None:
            raise RuntimeError("server has not started")
        return self._port

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # -- event-loop lifecycle ---------------------------------------------

    async def start_async(self) -> None:
        """Bind the listening socket and start serving (non-blocking)."""
        self._metrics_were_enabled = _metrics.is_enabled()
        if not self._metrics_were_enabled:
            _metrics.enable()
        await self.service.start()
        self._server = await asyncio.start_server(
            self._client_connected, self.config.host, self.config.port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        log_event(_logger, "serve.listen", host=self.config.host,
                  port=self._port)

    async def stop_async(self) -> None:
        """Graceful drain: close the listener, finish the queue, stop."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        if not self._metrics_were_enabled:
            _metrics.disable()

    # -- background-thread lifecycle (tests, docs, benchmarks) -------------

    def start(self, ready_timeout_s: float = 10.0) -> str:
        """Run the server on a daemon thread; returns the base URL.

        The synchronous twin of ``start_async`` for callers without an
        event loop (doctests, benchmarks, notebooks).  Pair with
        :meth:`stop`.
        """
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._ready.clear()
        self._thread_error = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._thread_body()),
            name="sealpaa-serve", daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(ready_timeout_s):
            raise RuntimeError("server did not start within "
                               f"{ready_timeout_s}s")
        if self._thread_error is not None:
            self._thread = None
            raise RuntimeError(
                f"server failed to start: {self._thread_error}"
            ) from self._thread_error
        return self.base_url

    async def _thread_body(self) -> None:
        self._thread_loop = asyncio.get_running_loop()
        self._thread_stop = asyncio.Event()
        try:
            await self.start_async()
        except BaseException as exc:  # surfaced to start() in the caller
            self._thread_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._thread_stop.wait()
        await self.stop_async()

    def stop(self, timeout_s: float = 30.0) -> None:
        """Drain and stop a :meth:`start`-ed server (idempotent)."""
        thread, loop, stop = self._thread, self._thread_loop, self._thread_stop
        self._thread = self._thread_loop = self._thread_stop = None
        if thread is None or loop is None or stop is None:
            return
        loop.call_soon_threadsafe(stop.set)
        thread.join(timeout_s)
        if thread.is_alive():
            raise RuntimeError(f"server did not stop within {timeout_s}s")

    # -- connection handling ----------------------------------------------

    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        peername = writer.get_extra_info("peername")
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _HttpError as exc:
                    writer.write(_encode_response(
                        exc.status, _error_doc(exc.status, str(exc)),
                        keep_alive=exc.recoverable,
                        extra_headers=exc.headers,
                    ))
                    await writer.drain()
                    if exc.recoverable:
                        continue
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                request.peername = peername
                response = await self._respond(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive or self.service.draining:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, request: _HttpRequest) -> bytes:
        # Correlation: honour an inbound X-Request-Id (so a gateway's ID
        # follows the request through spans and the access log), else
        # mint one; either way it is echoed on the response.
        request.request_id = (request.headers.get("x-request-id")
                              or new_request_id())
        route = f"{request.method} {request.path}"
        endpoint = {
            "POST /v1/analyze": ("analyze", self._handle_analyze),
            "POST /v1/analyze_batch": ("analyze_batch",
                                       self._handle_analyze_batch),
            "GET /healthz": ("healthz", self._handle_healthz),
            "GET /metrics": ("metrics", self._handle_metrics),
        }.get(route)
        if endpoint is None:
            known_paths = ("/v1/analyze", "/v1/analyze_batch",
                           "/healthz", "/metrics")
            status = 405 if request.path in known_paths else 404
            self._log_access(request, status, 0.0)
            return _encode_response(
                status, _error_doc(status, f"no route {route}"),
                request.keep_alive,
                extra_headers=[("X-Request-Id", request.request_id)],
            )
        name, handler = endpoint
        if _metrics.is_enabled():
            _metrics.inc(f"serve.http.{name}.requests")
        started = asyncio.get_running_loop().time()

        def encode(status: int, doc: object,
                   headers: Sequence[Tuple[str, str]]) -> bytes:
            return _encode_response(
                status, doc, request.keep_alive,
                list(headers) + [("X-Request-Id", request.request_id)])

        try:
            with use_request_id(request.request_id), \
                    _metrics.timed(f"serve.http.{name}.seconds"):
                status, doc, headers = await handler(request)
            # Inside the guard: an answer json.dumps cannot serialise
            # is a 500, not a connection closed without a status line.
            response = encode(status, doc, headers)
        except _HttpError as exc:
            status = exc.status
            response = encode(
                status, _error_doc(status, str(exc), **exc.details),
                exc.headers)
        except Exception as exc:  # never kill the connection loop
            log_event(_logger, "serve.http.error", endpoint=name,
                      error=repr(exc))
            status = 500
            response = encode(500, _error_doc(500, "internal error"), ())
        if _metrics.is_enabled():
            _metrics.inc(f"serve.http.status.{status}")
        elapsed = asyncio.get_running_loop().time() - started
        self._log_access(request, status, elapsed)
        return response

    def _log_access(self, request: _HttpRequest, status: int,
                    elapsed_s: float) -> None:
        if self.access_log is None:
            return
        try:
            self.access_log.emit(
                "serve.request",
                request_id=request.request_id,
                method=request.method,
                path=request.path,
                status=status,
                duration_ms=round(elapsed_s * 1000, 3),
            )
        except OSError as exc:  # a full disk must not kill the server
            log_event(_logger, "serve.accesslog.error", error=repr(exc))

    # -- endpoint handlers -------------------------------------------------

    def _parse_body(self, request: _HttpRequest) -> object:
        try:
            return json.loads(request.body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from exc

    async def _submit_doc(self, doc: object,
                          admission_key: Optional[str] = None
                          ) -> Dict[str, object]:
        if admission_key is not None:
            retry_after = self.admission.check(admission_key)
            if retry_after is not None:
                raise _HttpError(
                    429, "client rate limit exceeded; retry after "
                         f"{format_retry_after(retry_after)}s",
                    headers=[("Retry-After",
                              format_retry_after(retry_after))],
                    recoverable=True,
                )
        analysis = parse_analysis_doc(doc)
        deadline = parse_deadline(doc, self.config.default_deadline_s)
        result = await self.service.submit(analysis, deadline)
        return result_to_doc(result)

    def _admission_key(self, request: _HttpRequest) -> Optional[str]:
        if not self.admission.enabled:
            return None
        return client_key(request.headers, request.peername)

    async def _handle_analyze(self, request: _HttpRequest):
        doc = self._parse_body(request)
        try:
            return 200, await self._submit_doc(
                doc, self._admission_key(request)), ()
        except RequestParseError as exc:
            raise _HttpError(400, str(exc)) from exc
        except OverloadedError as exc:
            raise _HttpError(
                429, str(exc),
                headers=[("Retry-After",
                          format_retry_after(exc.retry_after_s))],
            ) from exc
        except BreakerOpenError as exc:
            raise _HttpError(
                503, str(exc),
                headers=[("Retry-After",
                          format_retry_after(exc.retry_after_s))],
            ) from exc
        except DeadlineError as exc:
            raise _HttpError(504, str(exc)) from exc
        except ClosingError as exc:
            raise _HttpError(503, str(exc)) from exc
        except SupportLimitError as exc:
            raise _HttpError(
                422, str(exc), details=_support_limit_details(exc)) from exc

    async def _handle_analyze_batch(self, request: _HttpRequest):
        doc = self._parse_body(request)
        if not isinstance(doc, dict) or not isinstance(doc.get("requests"),
                                                       list):
            raise _HttpError(400, 'body must be {"requests": [...]}')
        items: List[object] = doc["requests"]
        if not items:
            raise _HttpError(400, '"requests" must not be empty')
        if len(items) > self.config.queue_limit:
            raise _HttpError(
                413, f"batch of {len(items)} exceeds the queue limit "
                     f"({self.config.queue_limit})",
            )
        admission_key = self._admission_key(request)
        outcomes = await asyncio.gather(
            *(self._submit_doc(item, admission_key) for item in items),
            return_exceptions=True,
        )
        results: List[Dict[str, object]] = []
        refused = 0
        for outcome in outcomes:
            if isinstance(outcome, dict):
                results.append(outcome)
            elif isinstance(outcome, RequestParseError):
                results.append(_error_doc(400, str(outcome)))
            elif isinstance(outcome, OverloadedError):
                refused += 1
                results.append(_error_doc(429, str(outcome)))
            elif isinstance(outcome, _HttpError):
                # Per-item admission refusal (each item costs a token).
                refused += 1
                results.append(_error_doc(outcome.status, str(outcome)))
            elif isinstance(outcome, BreakerOpenError):
                refused += 1
                results.append(_error_doc(503, str(outcome)))
            elif isinstance(outcome, DeadlineError):
                results.append(_error_doc(504, str(outcome)))
            elif isinstance(outcome, ClosingError):
                results.append(_error_doc(503, str(outcome)))
            elif isinstance(outcome, SupportLimitError):
                results.append(_error_doc(
                    422, str(outcome), **_support_limit_details(outcome)))
            elif isinstance(outcome, BaseException):
                raise outcome
        if refused == len(items):
            # Nothing was accepted: surface pure refusal as a 429 so
            # naive clients back off, with the same Retry-After hint.
            return 429, {"results": results}, (
                ("Retry-After",
                 format_retry_after(self.config.retry_after_s)),
            )
        return 200, {"results": results}, ()

    async def _handle_healthz(self, request: _HttpRequest):
        draining = self.service.draining
        stats = self.service.stats()
        slo = evaluate_slo(
            _metrics.get_registry().snapshot(), self.config.slo,
            shed_rate=stats.get("recent_shed_rate"),
        )
        if draining:
            status = "draining"
        else:
            # Degraded is still alive: the process serves, so /healthz
            # answers 200 and the verdict carries the nuance (liveness
            # probes keep passing; alerting reads the slo block).
            status = slo["status"]
        doc = {
            "status": status,
            "queue_depth": stats["queue_depth"],
            "max_batch": self.config.max_batch,
            "slo": slo,
        }
        return (503 if draining else 200), doc, ()

    async def _handle_metrics(self, request: _HttpRequest):
        doc = _metrics.get_registry().snapshot()
        doc["service"] = self.service.stats()
        if request.wants_prometheus():
            text = render_prometheus(doc)
            return 200, _RawText(text, _PROM_CONTENT_TYPE), ()
        return 200, doc, ()


async def _serve_until_signal(config: ServeConfig) -> Optional[int]:
    """Serve until SIGTERM/SIGINT, drain, and return the stopping signal."""
    server = AnalysisServer(config)
    await server.start_async()
    stop = asyncio.Event()
    received: List[int] = []
    loop = asyncio.get_running_loop()
    handled = []

    def on_signal(signum: int) -> None:
        received.append(signum)
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, on_signal, signum)
            handled.append(signum)
        except (NotImplementedError, RuntimeError):
            pass
    print(f"serving on {server.base_url}  "
          f"(max_batch={config.max_batch}, "
          f"window={config.batch_window_s * 1000:.1f}ms, "
          f"queue={config.queue_limit}"
          + (f", cache={config.cache_dir}" if config.cache_dir else "")
          + "); SIGTERM drains gracefully", flush=True)
    try:
        await stop.wait()
    finally:
        for signum in handled:
            loop.remove_signal_handler(signum)
        print("draining...", flush=True)
        await server.stop_async()
        print("stopped", flush=True)
    return received[0] if received else None


def run_server(config: Optional[ServeConfig] = None) -> None:
    """Blocking entry point of ``sealpaa serve``: serve until SIGTERM/
    SIGINT, then drain gracefully.

    Both signals drain the same way.  SIGTERM then returns normally
    (exit 0); SIGINT re-raises ``KeyboardInterrupt`` after the drain,
    so the CLI reports Ctrl-C with its usual exit status 130.
    """
    stopped_by = asyncio.run(_serve_until_signal(config or ServeConfig()))
    if stopped_by == signal.SIGINT:
        raise KeyboardInterrupt
