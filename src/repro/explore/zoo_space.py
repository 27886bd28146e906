"""Pareto exploration over the adder-family zoo.

The classic LPAA sweep (:mod:`repro.explore.design_space`) varies the
*cell*; this module varies the *architecture*: every named zoo config
(:func:`repro.core.adder_zoo.named_zoo` -- LOA, ACA-1/ACA-2, ETA, GDA,
GeAr, truncated prefix trees) at one width, each measured on error rate,
MED, WCE and MRED through the engine's batch executor, plus the
abstract unit-gate delay/area of :func:`repro.core.adder_zoo.zoo_cost`.

:func:`sweep_zoo_space` builds all (adder, kind) requests into one
:func:`repro.engine.run_batch` call -- so result caches and budgets
apply exactly as in any other sweep -- and
:func:`zoo_pareto_front` extracts the non-dominated subset under any
selection of minimised objectives (quality vs delay vs area).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..core.adder_zoo import ZooAdder, named_zoo, parse_adder, zoo_cost
from ..core.exceptions import ExplorationError
from ..engine import AnalysisRequest, run_batch
from ..runtime.budget import RunBudget
from .pareto import dominates

#: The kinds every zoo point is measured on, in request order.
_SWEEP_KINDS = ("chain", "med", "wce", "mred")


@dataclass(frozen=True)
class ZooDesignPoint:
    """One zoo adder's measured quality and abstract cost at a width."""

    adder: str                 # canonical config string
    width: int
    representation: str        # "chain" | "windowed"
    p_error: float
    med: Optional[float]
    wce: Optional[float]
    mred: Optional[float]
    delay_units: float
    area_units: float
    engine: str                # engine that answered the ER question

    @property
    def is_exact_adder(self) -> bool:
        return self.p_error == 0.0


#: Named objectives -> extractor over :class:`ZooDesignPoint`.
#: All minimised.
_ZOO_OBJECTIVES = {
    "error": lambda p: p.p_error,
    "med": lambda p: p.med,
    "wce": lambda p: p.wce,
    "mred": lambda p: p.mred,
    "delay": lambda p: p.delay_units,
    "area": lambda p: p.area_units,
}


def sweep_zoo_space(
    width: int,
    adders: Optional[Sequence[Union[str, ZooAdder]]] = None,
    p: object = 0.5,
    budget: Optional[RunBudget] = None,
) -> List[ZooDesignPoint]:
    """Measure every zoo adder at *width* across ER/MED/WCE/MRED.

    *adders* defaults to the reference catalog
    (:func:`~repro.core.adder_zoo.named_zoo`); pass config strings or
    parsed :class:`~repro.core.adder_zoo.ZooAdder` instances to sweep a
    custom set.  All requests go through one :func:`repro.engine
    .run_batch` call, so the segment/result caches serve the sweep
    exactly like any other batch.
    Requests a budget truncates leave their metric ``None``.
    """
    zoo = ([parse_adder(a) for a in adders] if adders is not None
           else named_zoo(width))
    for adder in zoo:
        if adder.n != width:
            raise ExplorationError(
                f"adder {adder.config_string!r} has width {adder.n}, "
                f"sweep is at width {width}"
            )
    requests = [
        AnalysisRequest.zoo(adder, p_a=p, p_b=p, kind=kind)
        for adder in zoo
        for kind in _SWEEP_KINDS
    ]
    results = run_batch(requests, budget=budget)
    points: List[ZooDesignPoint] = []
    for i, adder in enumerate(zoo):
        chain, med, wce, mred = results[4 * i:4 * i + 4]
        if chain is None:
            continue  # budget stopped before this adder's ER answer
        cost = zoo_cost(adder)
        points.append(ZooDesignPoint(
            adder=adder.config_string,
            width=width,
            representation=adder.representation,
            p_error=float(chain.p_error),
            med=None if med is None or med.med is None
                else float(med.med),
            wce=None if wce is None or wce.wce is None
                else float(wce.wce),
            mred=None if mred is None or mred.mred is None
                else float(mred.mred),
            delay_units=cost.delay_units,
            area_units=cost.area_units,
            engine=chain.engine,
        ))
    return points


def zoo_objective_vector(
    point: ZooDesignPoint, objectives: Sequence[str]
) -> Tuple[float, ...]:
    """The point's objective values, raising on missing data."""
    values = []
    for name in objectives:
        try:
            extractor = _ZOO_OBJECTIVES[name]
        except KeyError:
            raise ExplorationError(
                f"unknown zoo objective {name!r}; known: "
                f"{sorted(_ZOO_OBJECTIVES)}"
            ) from None
        value = extractor(point)
        if value is None:
            raise ExplorationError(
                f"point {point.adder} lacks {name!r} data "
                "(budget-truncated sweep?)"
            )
        values.append(float(value))
    return tuple(values)


def zoo_pareto_front(
    points: Sequence[ZooDesignPoint],
    objectives: Sequence[str] = ("error", "delay", "area"),
) -> List[ZooDesignPoint]:
    """Non-dominated subset of *points* under the given minimised
    objectives, in input order."""
    if not points:
        return []
    vectors = [zoo_objective_vector(p, objectives) for p in points]
    front = []
    for i, (point, vec) in enumerate(zip(points, vectors)):
        if not any(
            dominates(other, vec)
            for j, other in enumerate(vectors)
            if j != i
        ):
            front.append(point)
    return front
