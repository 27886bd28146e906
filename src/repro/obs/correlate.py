"""Request-correlation IDs threaded through the serving and engine layers.

The serving layer mints one ID per HTTP request (honouring an inbound
``X-Request-Id`` header when present), echoes it in the response, and
scopes it with :func:`use_request_id` around the handler.  Downstream
code -- batch dispatch, `engine.run_batch` spans, the access log --
reads :func:`current_request_id` instead of passing an argument through
every signature.

The ID lives in a `contextvars.ContextVar`, so concurrent asyncio
connections each see their own.  One caveat the service layer handles
explicitly: contextvars do **not** propagate into
``loop.run_in_executor`` threads, so the executor callable re-enters
:func:`use_request_id` itself.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

_request_id_var: ContextVar[Optional[str]] = ContextVar(
    "sealpaa_request_id", default=None
)

_counter_lock = threading.Lock()
_counter = 0


def new_request_id() -> str:
    """Mint a compact, unique, sortable request ID.

    Format: ``req-<epoch-ms hex>-<pid hex>-<seq hex>`` -- unique across
    processes (pid), time (ms clock) and bursts (per-process counter),
    without needing a UUID dependency or 36-character IDs in logs.
    """
    global _counter
    with _counter_lock:
        _counter += 1
        seq = _counter
    return f"req-{int(time.time() * 1000):x}-{os.getpid():x}-{seq:x}"


def current_request_id() -> Optional[str]:
    """The request ID scoped to the current context, or ``None``."""
    return _request_id_var.get()


@contextmanager
def use_request_id(request_id: Optional[str]) -> Iterator[Optional[str]]:
    """Scope *request_id* as the current one for the enclosed block."""
    token = _request_id_var.set(request_id)
    try:
        yield request_id
    finally:
        _request_id_var.reset(token)
