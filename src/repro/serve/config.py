"""Operator-facing configuration for the analysis service.

Every batching, shedding and caching knob the operator guide
(``docs/serving.md``) documents lives in one frozen dataclass, validated
eagerly, so a bad flag fails at start-up instead of under load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.exceptions import AnalysisError
from ..engine.diskcache import DEFAULT_MEMORY_ENTRIES
from ..obs.accesslog import (
    DEFAULT_BACKUPS as DEFAULT_ACCESS_LOG_BACKUPS,
    DEFAULT_MAX_BYTES as DEFAULT_ACCESS_LOG_MAX_BYTES,
)
from ..obs.slo import SloPolicy


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`~repro.serve.AnalysisServer` instance.

    *Batching*: an incoming request waits at most ``batch_window_s`` for
    companions; up to ``max_batch`` requests are coalesced into one
    vectorised :func:`repro.engine.run_batch` dispatch.  ``max_batch=1``
    disables coalescing (every request runs alone -- the baseline the
    throughput benchmark compares against).

    *Load shedding*: at most ``queue_limit`` requests may be waiting; a
    request arriving at a full queue is refused immediately with HTTP
    429 and a ``Retry-After`` hint of ``retry_after_s`` seconds.

    *Deadlines*: ``default_deadline_s`` bounds each request that does
    not carry its own ``deadline_s``; the dispatcher derives a
    deadline-only :class:`~repro.runtime.budget.RunBudget` per batch
    from the tightest waiting request.

    *Caching*: ``cache_dir`` mounts the persistent two-tier result store
    (:mod:`repro.engine.diskcache`) so answers survive restarts and are
    shared across server processes on one host.

    *Shutdown*: on SIGTERM the server stops accepting connections,
    finishes everything already queued, and force-closes whatever is
    still open after ``drain_grace_s`` seconds.

    *Telemetry*: ``access_log`` enables the structured JSONL request
    log (one record per request, correlation ID included) rotated at
    ``access_log_max_bytes`` keeping ``access_log_backups``
    generations; ``slo`` carries the rolling-window thresholds
    ``/healthz`` evaluates (see :class:`repro.obs.slo.SloPolicy`).

    *Robustness* (PR 7): ``breaker_failures`` consecutive engine
    failures open a circuit breaker around engine dispatch (503 +
    ``Retry-After`` while open; 0 disables), cooling down for
    ``breaker_reset_s`` and letting ``breaker_half_open_max`` probes
    through half-open.  ``rate_limit_rps`` arms per-client token-bucket
    admission control (429 before queueing, keyed on API key / peer IP;
    ``None`` disables) with burst capacity ``rate_limit_burst``
    (``None`` = one second's allowance).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch: int = 64
    batch_window_s: float = 0.005
    queue_limit: int = 1024
    default_deadline_s: Optional[float] = None
    retry_after_s: float = 0.05
    drain_grace_s: float = 5.0
    cache_dir: Optional[str] = None
    memory_cache_entries: int = DEFAULT_MEMORY_ENTRIES
    max_disk_entries: Optional[int] = None
    access_log: Optional[str] = None
    access_log_max_bytes: int = DEFAULT_ACCESS_LOG_MAX_BYTES
    access_log_backups: int = DEFAULT_ACCESS_LOG_BACKUPS
    slo: SloPolicy = SloPolicy()
    breaker_failures: int = 0
    breaker_reset_s: float = 5.0
    breaker_half_open_max: int = 1
    rate_limit_rps: Optional[float] = None
    rate_limit_burst: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise AnalysisError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.queue_limit < 1:
            raise AnalysisError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.batch_window_s < 0:
            raise AnalysisError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        for name in ("default_deadline_s", "retry_after_s", "drain_grace_s"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise AnalysisError(f"{name} must be >= 0, got {value}")
        if not 0 <= self.port <= 65535:
            raise AnalysisError(f"port out of range: {self.port}")
        if self.access_log_max_bytes < 1:
            raise AnalysisError(
                "access_log_max_bytes must be >= 1, got "
                f"{self.access_log_max_bytes}"
            )
        if self.access_log_backups < 0:
            raise AnalysisError(
                f"access_log_backups must be >= 0, got "
                f"{self.access_log_backups}"
            )
        if self.breaker_failures < 0:
            raise AnalysisError(
                f"breaker_failures must be >= 0, got {self.breaker_failures}"
            )
        if self.breaker_reset_s <= 0:
            raise AnalysisError(
                f"breaker_reset_s must be positive, got {self.breaker_reset_s}"
            )
        if self.breaker_half_open_max < 1:
            raise AnalysisError(
                "breaker_half_open_max must be >= 1, got "
                f"{self.breaker_half_open_max}"
            )
        if self.rate_limit_rps is not None and self.rate_limit_rps <= 0:
            raise AnalysisError(
                f"rate_limit_rps must be positive, got {self.rate_limit_rps}"
            )
        if self.rate_limit_burst is not None and self.rate_limit_burst < 1:
            raise AnalysisError(
                f"rate_limit_burst must be >= 1, got {self.rate_limit_burst}"
            )
