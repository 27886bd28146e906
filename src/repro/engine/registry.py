"""Engine registry: capability metadata and cost estimates per backend.

Every analytical and simulation backend registers an
:class:`EngineInfo` here (see :mod:`repro.engine.backends`).  Engine
selection (:func:`repro.engine.executor.select_engine`) is a walk over
this data: capabilities (``accepts``), the abstract
``cost_estimate(request)``, per-kind ``width_limits`` and the
``degrades_to`` rung to fall back to -- no backend threshold is
hard-coded in the selector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.exceptions import AnalysisError
from .request import AnalysisRequest

#: Engine families.
FAMILY_ANALYTICAL = "analytical"
FAMILY_SIMULATION = "simulation"

#: Abstract cost units the estimators speak: one unit ~ one enumerated
#: case / drawn sample / recursion stage-op.
CostEstimator = Callable[[AnalysisRequest], float]

#: Conservative throughput of every engine, in cost units per second,
#: used to judge deadline affordability.  Real machines do better;
#: underestimating only degrades earlier, which is the safe direction.
OPS_PER_SECOND = 2_000_000.0


@dataclass(frozen=True)
class EngineInfo:
    """Registration record for one backend."""

    name: str
    family: str                    # FAMILY_ANALYTICAL | FAMILY_SIMULATION
    request_kinds: Tuple[str, ...]
    exact: bool
    run: Callable[..., object]     # (request, **options) -> AnalysisResult
    cost_estimate: CostEstimator
    supports_trace: bool = False
    supports_correlated: bool = False
    #: The answer is a pure function of the request alone -- no seed,
    #: sample budget or wall clock in the output -- so it may be replayed
    #: from the persistent result cache (:mod:`repro.engine.diskcache`)
    #: to any future identical request.
    deterministic: bool = False
    max_width: Optional[int] = None
    block_cases: Optional[int] = None   # largest cost one rung takes
    default_samples: Optional[int] = None
    #: Understands windowed-block (``request.block``) zoo adders.  The
    #: check cuts both ways: block engines answer *only* block requests,
    #: and cell-chain engines never see a block request.
    supports_block: bool = False
    #: Router-only per-kind width guards: past ``width_limits[kind]``
    #: the selector walks on to ``degrades_to[kind]`` (a forced engine
    #: still runs).
    width_limits: Mapping[str, int] = field(default_factory=dict)
    #: Per-kind fallback rung.  A kind without an entry makes this
    #: engine final for that kind: once reached, it always answers.
    degrades_to: Mapping[str, str] = field(default_factory=dict)
    description: str = ""

    def accepts(self, request: AnalysisRequest) -> bool:
        """Static capability check (kind, width, correlation, trace)."""
        if request.kind not in self.request_kinds:
            return False
        if self.max_width is not None and request.width > self.max_width:
            return False
        if request.joints is not None and not self.supports_correlated:
            return False
        if request.keep_trace and not self.supports_trace:
            return False
        block = getattr(request, "block", None)
        if (block is not None) != self.supports_block:
            return False
        return True


class EngineRegistry:
    """Name -> :class:`EngineInfo` map with capability queries."""

    def __init__(self) -> None:
        self._engines: Dict[str, EngineInfo] = {}

    def register(self, info: EngineInfo, replace: bool = False) -> EngineInfo:
        if not replace and info.name in self._engines:
            raise AnalysisError(f"engine {info.name!r} already registered")
        self._engines[info.name] = info
        return info

    def get(self, name: str) -> EngineInfo:
        try:
            return self._engines[name]
        except KeyError:
            known = ", ".join(sorted(self._engines)) or "<none>"
            raise AnalysisError(
                f"unknown engine {name!r}; registered: {known}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._engines)

    def __contains__(self, name: str) -> bool:
        return name in self._engines

    def for_request(
        self,
        request: AnalysisRequest,
        family: Optional[str] = None,
        exact: Optional[bool] = None,
    ) -> List[EngineInfo]:
        """Capable engines for *request*, cheapest first."""
        found = [
            info for info in self._engines.values()
            if info.accepts(request)
            and (family is None or info.family == family)
            and (exact is None or info.exact == exact)
        ]
        found.sort(key=lambda info: info.cost_estimate(request))
        return found


#: The process-wide registry, populated by :mod:`repro.engine.backends`.
REGISTRY = EngineRegistry()
