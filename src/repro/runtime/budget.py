"""Run budgets and cooperative cancellation for long-running engines.

The paper's point is that exhaustive simulation is infeasible at scale
(2^(2N+1) cases, Table 3); the practical consequence for this library is
that its *own* heavy engines (high-sample Monte-Carlo, chunked
exhaustive enumeration, brute-force design-space search) can run for a
long time.  A :class:`RunBudget` bounds such a run up front -- wall
clock, sample/case/config counts, a memory hint -- and a
:class:`BudgetMeter` checks it cooperatively at chunk boundaries, so the
engine stops *cleanly*: it returns a well-formed partial result flagged
``truncated=True`` with the stop reason recorded in the run manifest,
instead of being killed mid-write by an external timeout.

The meter's clock is injectable (``clock=...``) which is how the chaos
shim simulates deadline expiry deterministically in tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.exceptions import AnalysisError

#: Stop reasons recorded in manifests / checkpoints (stable strings).
STOP_DEADLINE = "deadline"
STOP_MAX_SAMPLES = "max_samples"
STOP_MAX_CASES = "max_cases"
STOP_MAX_CONFIGS = "max_configs"


@dataclass(frozen=True)
class RunBudget:
    """Declarative resource envelope for one engine run.

    All limits are optional; ``None`` means unlimited.  ``deadline_s``
    is wall-clock seconds measured from meter creation (i.e. engine
    start), not an absolute timestamp, so budgets serialise and compare
    cleanly.  ``memory_hint_mb`` does not enforce anything by itself --
    engines use it to clamp their batch/block sizes.
    """

    deadline_s: Optional[float] = None
    max_samples: Optional[int] = None
    max_cases: Optional[int] = None
    max_configs: Optional[int] = None
    memory_hint_mb: Optional[float] = None

    def __post_init__(self) -> None:
        for field_name in ("deadline_s", "memory_hint_mb"):
            value = getattr(self, field_name)
            if value is not None and not value > 0:
                raise AnalysisError(
                    f"budget {field_name} must be > 0, got {value!r}"
                )
        for field_name in ("max_samples", "max_cases", "max_configs"):
            value = getattr(self, field_name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise AnalysisError(
                    f"budget {field_name} must be a positive int, "
                    f"got {value!r}"
                )

    @classmethod
    def for_deadline(cls, seconds: Optional[float]) -> Optional["RunBudget"]:
        """Deadline-only budget, or ``None`` for no limit.

        The serving layer derives one of these per dispatched
        micro-batch from the tightest remaining per-request deadline, so
        a slow engine run is cut at exactly the moment the most
        impatient waiting client would give up.
        """
        if seconds is None:
            return None
        return cls(deadline_s=seconds)

    @property
    def unlimited(self) -> bool:
        """True when no limit is set (the meter never stops a run)."""
        return all(
            getattr(self, f) is None
            for f in ("deadline_s", "max_samples", "max_cases", "max_configs")
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form for run manifests and checkpoints."""
        return {
            "deadline_s": self.deadline_s,
            "max_samples": self.max_samples,
            "max_cases": self.max_cases,
            "max_configs": self.max_configs,
            "memory_hint_mb": self.memory_hint_mb,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunBudget":
        """Inverse of :meth:`as_dict`."""
        return cls(
            deadline_s=data.get("deadline_s"),  # type: ignore[arg-type]
            max_samples=data.get("max_samples"),  # type: ignore[arg-type]
            max_cases=data.get("max_cases"),  # type: ignore[arg-type]
            max_configs=data.get("max_configs"),  # type: ignore[arg-type]
            memory_hint_mb=data.get("memory_hint_mb"),  # type: ignore[arg-type]
        )


class BudgetMeter:
    """Mutable progress tracker enforcing a :class:`RunBudget`.

    Engines ``charge()`` work done at every chunk boundary and consult
    :meth:`stop_reason`; a non-``None`` answer means "finish the current
    bookkeeping, flag the result truncated, and return".  The deadline
    clock defaults to :func:`time.monotonic` but is injectable for
    deterministic tests and chaos runs.
    """

    def __init__(
        self,
        budget: Optional[RunBudget] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.budget = budget or RunBudget()
        self._clock = clock
        self._start = clock()
        self.samples = 0
        self.cases = 0
        self.configs = 0

    def charge(self, samples: int = 0, cases: int = 0, configs: int = 0) -> None:
        """Record completed work (called after each chunk)."""
        self.samples += samples
        self.cases += cases
        self.configs += configs

    def elapsed(self) -> float:
        """Wall-clock seconds since the meter was created."""
        return self._clock() - self._start

    def stop_reason(self) -> Optional[str]:
        """Why the run must stop now, or ``None`` to keep going."""
        b = self.budget
        if b.deadline_s is not None and self.elapsed() >= b.deadline_s:
            return STOP_DEADLINE
        if b.max_samples is not None and self.samples >= b.max_samples:
            return STOP_MAX_SAMPLES
        if b.max_cases is not None and self.cases >= b.max_cases:
            return STOP_MAX_CASES
        if b.max_configs is not None and self.configs >= b.max_configs:
            return STOP_MAX_CONFIGS
        return None

    def remaining_samples(self, want: int) -> int:
        """Clamp a desired chunk of samples to the budget's remainder."""
        if self.budget.max_samples is None:
            return want
        return max(0, min(want, self.budget.max_samples - self.samples))

    def remaining_cases(self, want: int) -> int:
        """Clamp a desired chunk of cases to the budget's remainder."""
        if self.budget.max_cases is None:
            return want
        return max(0, min(want, self.budget.max_cases - self.cases))

    def remaining_configs(self, want: int) -> int:
        """Clamp a desired chunk of configurations to the remainder."""
        if self.budget.max_configs is None:
            return want
        return max(0, min(want, self.budget.max_configs - self.configs))


def make_meter(budget: Optional[RunBudget]) -> BudgetMeter:
    """Engine-side meter factory honouring an installed chaos shim.

    With a :class:`~repro.runtime.chaos.ChaosShim` active, the meter
    runs on the shim's virtual clock so tests can expire deadlines at
    exact chunk boundaries; otherwise it uses ``time.monotonic``.
    """
    from .chaos import get_chaos

    shim = get_chaos()
    clock = shim.clock if shim is not None else time.monotonic
    return BudgetMeter(budget, clock=clock)
