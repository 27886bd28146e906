"""Graceful degradation: the routing outcome and its telemetry.

The paper's Fig. 1 story -- exhaustive simulation explodes as
``2^(2N+1)`` while cheaper estimators stay flat -- becomes an
operational decision in :func:`repro.engine.executor.select_engine`,
which walks the engines' registered ``degrades_to`` rungs (for chain
simulations: exhaustive -> Monte-Carlo) until one
fits the width and the :class:`~repro.runtime.budget.RunBudget`.  This
module holds what that walk produces: the :class:`EngineDecision`, its
``runtime.router.*`` counters, and the chain ladder's engine names.
Every downgrade is recorded in the result's provenance manifest
(``degraded_from``), so a number produced by a fallback engine can never
masquerade as the exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs import metrics as _metrics

ENGINE_EXHAUSTIVE = "exhaustive"
ENGINE_MONTECARLO = "montecarlo"


@dataclass(frozen=True)
class EngineDecision:
    """The routing outcome: which engine runs and why."""

    engine: str
    reason: str
    degraded_from: Optional[str] = None
    estimated_cases: Optional[int] = None
    samples: Optional[int] = None


def record_decision(decision: EngineDecision) -> EngineDecision:
    """Telemetry: count routing outcomes (and degradations) per engine,
    so operators can see *why* latency changed -- e.g. deadline pressure
    pushing exact queries down to Monte-Carlo."""
    if _metrics.is_enabled():
        _metrics.inc(f"runtime.router.decision.{decision.engine}")
        if decision.degraded_from is not None:
            _metrics.inc("runtime.router.degraded")
    return decision
