"""Rolling-window SLO evaluation over the live metrics registry.

The serving layer answers "is the service healthy *right now*?" by
evaluating a small set of objectives against recent behaviour:

* **latency** -- p50/p99 of the request timer's rolling window (the
  last :data:`repro.obs.metrics.TIMER_WINDOW` requests, exact
  nearest-rank quantiles -- see the accuracy contract in
  :mod:`repro.obs.metrics`);
* **shed rate** -- fraction of recent admissions the bounded queue
  rejected, from the service's :class:`RollingRatio` window.

Each objective with observed data produces a pass/fail check; the
overall verdict is ``ok`` when every evaluated check passes and
``degraded`` otherwise.  Objectives without data (fresh server,
threshold disabled with ``None``) are reported as
``no_data``/``disabled`` and never degrade the verdict -- a service
that has served nothing is healthy, not failing its latency SLO.

``/healthz`` embeds the verdict document; ``sealpaa obs`` renders it.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional

#: Admissions remembered by :class:`RollingRatio` by default -- enough
#: to smooth bursts, small enough to reflect the last few seconds under
#: load.
DEFAULT_RATIO_WINDOW = 512


class RollingRatio:
    """Bounded window of boolean outcomes with an O(1) rate query.

    Deterministic: exactly the last *window* outcomes, kept in a deque;
    ``rate()`` is the fraction of ``True`` among them.  Used by the
    service for the rolling shed rate (``True`` = shed).
    """

    def __init__(self, window: int = DEFAULT_RATIO_WINDOW):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._window: Deque[bool] = deque(maxlen=int(window))
        self._true = 0
        self._lock = threading.Lock()

    def record(self, outcome: bool) -> None:
        with self._lock:
            if len(self._window) == self._window.maxlen:
                if self._window[0]:
                    self._true -= 1
            self._window.append(bool(outcome))
            if outcome:
                self._true += 1

    @property
    def count(self) -> int:
        return len(self._window)

    def rate(self) -> Optional[float]:
        """Fraction of ``True`` outcomes, or ``None`` with no data."""
        with self._lock:
            if not self._window:
                return None
            return self._true / len(self._window)


@dataclass(frozen=True)
class SloPolicy:
    """Thresholds for the serving SLOs.  ``None`` disables a check.

    The defaults are deliberately generous -- they catch a service that
    is clearly unwell (multi-second p99, heavy shedding) without
    flapping on modest hardware; operators tighten them per deployment
    via the ``sealpaa serve --slo-*`` flags.
    """

    max_p50_s: Optional[float] = 1.0
    max_p99_s: Optional[float] = 5.0
    max_shed_rate: Optional[float] = 0.5
    #: Timer whose rolling window provides the latency quantiles.
    latency_timer: str = "serve.http.analyze.seconds"

    def __post_init__(self) -> None:
        for name in ("max_p50_s", "max_p99_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        value = self.max_shed_rate
        if value is not None and not 0.0 <= value <= 1.0:
            raise ValueError(f"max_shed_rate must be in [0, 1], got {value}")


def _check(name: str, observed: Optional[float], threshold: Optional[float],
           upper_bound: bool) -> Dict[str, object]:
    if threshold is None:
        return {"name": name, "status": "disabled"}
    if observed is None:
        return {"name": name, "status": "no_data", "threshold": threshold}
    ok = observed <= threshold if upper_bound else observed >= threshold
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "observed": round(float(observed), 6),
        "threshold": threshold,
    }


def evaluate_slo(
    snapshot: Mapping[str, object],
    policy: Optional[SloPolicy] = None,
    shed_rate: Optional[float] = None,
) -> Dict[str, object]:
    """Evaluate *policy* against a registry *snapshot*.

    *shed_rate* is the service's rolling shed rate (``None`` with no
    recent admissions).  Returns a JSON-ready verdict document::

        {"status": "ok" | "degraded", "checks": [...]}
    """
    policy = policy or SloPolicy()
    timers: Mapping[str, Mapping[str, object]] = snapshot.get("timers") or {}
    latency = timers.get(policy.latency_timer) or {}
    has_latency = int(latency.get("count") or 0) > 0
    p50 = float(latency["p50_s"]) if has_latency else None
    p99 = float(latency["p99_s"]) if has_latency else None

    checks: List[Dict[str, object]] = [
        _check("latency_p50", p50, policy.max_p50_s, upper_bound=True),
        _check("latency_p99", p99, policy.max_p99_s, upper_bound=True),
        _check("shed_rate", shed_rate, policy.max_shed_rate,
               upper_bound=True),
    ]
    degraded = any(c["status"] == "fail" for c in checks)
    return {"status": "degraded" if degraded else "ok", "checks": checks}
