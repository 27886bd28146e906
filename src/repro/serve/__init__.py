"""Async batching HTTP/JSON service over the analysis engine.

``repro.serve`` turns the library into a long-running daemon: concurrent
clients POST chain questions, the service coalesces them into vectorised
:func:`repro.engine.run_batch` micro-batches, and (optionally) answers
repeat questions from the persistent two-tier result store
(:mod:`repro.engine.diskcache`) without touching an engine at all.

Its modules, importable separately:

* :mod:`repro.serve.config` -- :class:`ServeConfig`, every operator knob;
* :mod:`repro.serve.service` -- :class:`AnalysisService`, the
  protocol-agnostic batching/shedding/deadline core;
* :mod:`repro.serve.http` -- :class:`AnalysisServer`, the stdlib asyncio
  HTTP front-end, plus :func:`run_server` (the ``sealpaa serve`` entry
  point);
* :mod:`repro.serve.admission` -- per-client token-bucket admission
  control (429 before queueing, distinct from queue-full shedding);
* :mod:`repro.serve.client` -- :class:`AnalysisClient`, the retrying
  deadline-aware client (backoff + jitter, Retry-After, fingerprinted
  idempotent retries);
* :mod:`repro.serve.dashboard` -- the ``sealpaa dashboard`` curses
  operator console polling a running server's ``/metrics``.

In-process use (tests, notebooks, benchmarks)::

    from repro.serve import AnalysisServer, ServeConfig

    server = AnalysisServer(ServeConfig(port=0))   # port 0 = pick free
    url = server.start()                           # background thread
    ...                                            # urllib against url
    server.stop()                                  # graceful drain

Operator use: ``sealpaa serve --port 8080 --cache-dir /var/cache/sealpaa``
(see ``docs/serving.md``).  One process serves; restarting it after a
crash is the host process manager's job (systemd, a container
runtime), and SIGTERM drains it gracefully.
"""

from .admission import AdmissionController
from .client import (
    AnalysisClient,
    ClientError,
    RetryBudgetError,
    ServerStatusError,
)
from .config import ServeConfig
from .dashboard import render_once, run_dashboard
from .http import MAX_BODY_BYTES, AnalysisServer, run_server
from .service import (
    MAX_DEADLINE_S,
    AnalysisService,
    ClosingError,
    DeadlineError,
    OverloadedError,
    RequestParseError,
    parse_analysis_doc,
    parse_deadline,
    result_to_doc,
)

__all__ = [
    "AdmissionController",
    "AnalysisClient",
    "AnalysisServer",
    "AnalysisService",
    "ClientError",
    "ClosingError",
    "DeadlineError",
    "MAX_BODY_BYTES",
    "MAX_DEADLINE_S",
    "OverloadedError",
    "RequestParseError",
    "RetryBudgetError",
    "ServeConfig",
    "ServerStatusError",
    "parse_analysis_doc",
    "parse_deadline",
    "render_once",
    "result_to_doc",
    "run_dashboard",
    "run_server",
]
