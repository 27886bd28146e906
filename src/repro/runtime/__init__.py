"""Resilient execution layer for long-running engines.

Everything a multi-hour run needs to survive the real world:

* :mod:`~repro.runtime.budget` -- declarative :class:`RunBudget` limits
  (deadline, sample/case/config caps, memory hint) metered cooperatively
  at chunk boundaries, so engines stop cleanly with well-formed partial
  results instead of being killed;
* :mod:`~repro.runtime.checkpoint` -- crash-safe, atomically written
  checkpoints with configuration fingerprints; Monte-Carlo resume is
  bit-identical (RNG bit-generator state travels with the counts);
* :mod:`~repro.runtime.router` -- the routing outcome
  (:class:`EngineDecision`) of the engine ladder's graceful degradation
  from exhaustive enumeration to Monte-Carlo simulation when the width
  or the budget cannot afford the exact oracle, recorded in provenance;
* :mod:`~repro.runtime.validation` -- opt-in cross-check of the
  analytical recursion against a budgeted simulation (Wilson score
  interval), raising :class:`~repro.core.exceptions.ValidationError`
  on disagreement;
* :mod:`~repro.runtime.breaker` -- a three-state circuit breaker
  (closed / open / half-open) the serving layer wraps around engine
  dispatch so a demonstrably sick dependency fails fast instead of
  costing every caller a full timeout;
* :mod:`~repro.runtime.chaos` -- a fault-injection shim (virtual clock,
  injected IO failures, simulated interrupts, and serve-facing engine /
  cache faults) that the resilience tests drive; inert unless installed.

Import order matters here: the engines import :mod:`budget`,
:mod:`chaos` and :mod:`checkpoint` at module level, so those three must
initialise before :mod:`validation` (which reaches back into the
engines lazily, inside functions).
"""

from .budget import (
    STOP_DEADLINE,
    STOP_MAX_CASES,
    STOP_MAX_CONFIGS,
    STOP_MAX_SAMPLES,
    BudgetMeter,
    RunBudget,
    make_meter,
)
from .breaker import BreakerOpenError, CircuitBreaker
from .chaos import ChaosShim, get_chaos, install_chaos
from .checkpoint import (
    CHECKPOINT_FORMAT,
    Checkpoint,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from .router import (
    ENGINE_EXHAUSTIVE,
    ENGINE_MONTECARLO,
    EngineDecision,
)
from .validation import (
    VALIDATION_SAMPLE_COUNT,
    ValidationReport,
    validate_against_simulation,
)

__all__ = [
    "RunBudget",
    "BudgetMeter",
    "make_meter",
    "STOP_DEADLINE",
    "STOP_MAX_SAMPLES",
    "STOP_MAX_CASES",
    "STOP_MAX_CONFIGS",
    "Checkpoint",
    "CHECKPOINT_FORMAT",
    "config_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "EngineDecision",
    "ENGINE_EXHAUSTIVE",
    "ENGINE_MONTECARLO",
    "ValidationReport",
    "validate_against_simulation",
    "VALIDATION_SAMPLE_COUNT",
    "ChaosShim",
    "install_chaos",
    "get_chaos",
    "CircuitBreaker",
    "BreakerOpenError",
]
