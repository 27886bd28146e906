"""Lightweight span tracer for nested analysis/simulation calls.

:func:`trace_span` wraps a code region in a named span.  Parenting uses
`contextvars`, so a Monte-Carlo run that calls the analytical recursion
produces a navigable tree even across threads/async tasks, without any
caller plumbing::

    tracer = Tracer()
    with use_tracer(tracer):
        with trace_span("montecarlo.run", samples=1_000_000):
            ...  # nested trace_span calls become children

Two export shapes:

* :meth:`Tracer.to_dict` -- a ``sealpaa-trace-v1`` JSON tree (name,
  start/duration in seconds, attributes, children);
* :meth:`Tracer.to_chrome` -- Chrome ``trace_event`` format (complete
  "X" events, microsecond timestamps) loadable in ``chrome://tracing``
  / Perfetto.

When no tracer is installed, :func:`trace_span` returns a shared no-op
context manager, so instrumented code costs one function call.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional

TRACE_FORMAT = "sealpaa-trace-v1"


class Span:
    """One timed, named region with attributes and child spans."""

    __slots__ = ("name", "attrs", "start_s", "duration_s", "children",
                 "thread_id")

    def __init__(self, name: str, attrs: Dict[str, object], start_s: float):
        self.name = name
        self.attrs = attrs
        self.start_s = start_s
        self.duration_s = 0.0
        self.children: List["Span"] = []
        self.thread_id = threading.get_ident()

    def as_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.children:
            doc["children"] = [child.as_dict() for child in self.children]
        return doc


class Tracer:
    """Collects completed span trees for one run."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._origin = time.perf_counter()
        self._lock = threading.Lock()

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    def _add_root(self, span: Span) -> None:
        with self._lock:
            self.roots.append(span)

    def span_count(self) -> int:
        """Total number of recorded spans."""
        def count(span: Span) -> int:
            return 1 + sum(count(child) for child in span.children)
        with self._lock:
            return sum(count(root) for root in self.roots)

    def to_dict(self) -> Dict[str, object]:
        """``sealpaa-trace-v1`` JSON tree document."""
        with self._lock:
            return {
                "format": TRACE_FORMAT,
                "spans": [root.as_dict() for root in self.roots],
            }

    def to_chrome(self) -> Dict[str, object]:
        """Chrome ``trace_event`` document (complete "X" events)."""
        events: List[Dict[str, object]] = []
        pid = os.getpid()

        def emit(span: Span) -> None:
            event: Dict[str, object] = {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": pid,
                "tid": span.thread_id,
            }
            if span.attrs:
                event["args"] = dict(span.attrs)
            events.append(event)
            for child in span.children:
                emit(child)

        with self._lock:
            for root in self.roots:
                emit(root)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle, indent=2)
            handle.write("\n")


_tracer_var: ContextVar[Optional[Tracer]] = ContextVar(
    "sealpaa_tracer", default=None
)
_span_var: ContextVar[Optional[Span]] = ContextVar(
    "sealpaa_active_span", default=None
)


def get_tracer() -> Optional[Tracer]:
    """The tracer active in the current context (or ``None``)."""
    return _tracer_var.get()


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install *tracer* for the enclosed block (context-local).

    Any active span is detached for the block: it belongs to the
    previously installed tracer, and parenting new spans under it would
    silently hide them from *tracer*.
    """
    token = _tracer_var.set(tracer)
    span_token = _span_var.set(None)
    try:
        yield tracer
    finally:
        _span_var.reset(span_token)
        _tracer_var.reset(token)


def install_tracer(tracer: Optional[Tracer]) -> None:
    """Install *tracer* for the current context without scoping.

    Used by the CLI which enables tracing for the whole invocation;
    prefer :func:`use_tracer` in library/test code.
    """
    _tracer_var.set(tracer)


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    __slots__ = ("_tracer", "_span", "_parent_token")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self._span = Span(name, attrs, 0.0)

    def __enter__(self) -> Span:
        parent = _span_var.get()
        if parent is not None:
            parent.children.append(self._span)
        else:
            self._tracer._add_root(self._span)
        self._parent_token = _span_var.set(self._span)
        # Start and duration share the tracer clock, so child intervals
        # always nest inside their parent's [start, start + duration].
        self._span.start_s = self._tracer._now()
        return self._span

    def __exit__(self, *exc) -> None:
        self._span.duration_s = self._tracer._now() - self._span.start_s
        _span_var.reset(self._parent_token)


def trace_span(name: str, **attrs: object):
    """Open a named span as a context manager.

    No-op (shared null context) when no tracer is installed, so it is
    safe to leave in hot paths.  Attributes must be JSON-serialisable.
    When a correlation ID is scoped (see :mod:`repro.obs.correlate`),
    it is stamped on the span as ``request_id``, so serving-layer spans
    join up with access-log lines.
    """
    tracer = _tracer_var.get()
    if tracer is None:
        return _NULL_SPAN
    if "request_id" not in attrs:
        from .correlate import current_request_id

        request_id = current_request_id()
        if request_id is not None:
            attrs["request_id"] = request_id
    return _SpanContext(tracer, name, attrs)
