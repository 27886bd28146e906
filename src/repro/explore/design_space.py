"""Design-space sweeps over cells, widths and input statistics (paper §5).

Produces flat record lists combining the three axes the paper discusses
-- error probability (the recursion), power and area (the calibrated
structural model) -- ready for Pareto filtering and reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..circuits.power import PowerModel
from ..core.exceptions import ExplorationError
from ..core.recursive import CellSpec, resolve_cell
from ..engine import error_curves


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration of the design space."""

    cell_name: str
    width: int
    p_input: float
    p_error: float
    power_nw: Optional[float] = None
    area_ge: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        """Flat-dict view for CSV/JSON export."""
        return {
            "cell": self.cell_name,
            "width": self.width,
            "p_input": self.p_input,
            "p_error": self.p_error,
            "power_nw": self.power_nw,
            "area_ge": self.area_ge,
        }


def sweep_design_space(
    cells: Sequence[CellSpec],
    widths: Sequence[int],
    probabilities: Sequence[float],
    power_model: Optional[PowerModel] = None,
) -> List[DesignPoint]:
    """Evaluate every (cell, width, input probability) combination.

    Error probabilities come from one vectorised recursion pass per
    (cell, probability); power/area are attached when a *power_model* is
    supplied (each adds one structural evaluation per cell/width).
    """
    if not cells or not widths or not probabilities:
        raise ExplorationError("cells, widths and probabilities must be non-empty")
    width_list = sorted(set(int(w) for w in widths))
    if width_list[0] < 1:
        raise ExplorationError(f"widths must be >= 1, got {width_list[0]}")
    max_width = width_list[-1]
    prob_list = [float(p) for p in probabilities]
    if any(not 0.0 <= p <= 1.0 for p in prob_list):
        raise ExplorationError("probabilities must lie in [0, 1]")

    points: List[DesignPoint] = []
    prob_array = np.asarray(prob_list)
    for spec in cells:
        table = resolve_cell(spec)
        # The paper's operating points tie the carry-in to the operand
        # probability (e.g. Table 7's "A_i = B_i = C_in = 0.1").
        curves = error_curves(table, max_width, prob_array, p_cin=prob_array)
        curves = np.atleast_2d(curves)
        for pi, p in enumerate(prob_list):
            for width in width_list:
                power = area = None
                if power_model is not None:
                    power = power_model.chain_power_nw(
                        table, width, p_a=p, p_b=p, p_cin=p
                    )
                    area = power_model.chain_area_ge(table, width)
                points.append(
                    DesignPoint(
                        cell_name=table.name,
                        width=width,
                        p_input=p,
                        p_error=float(curves[pi, width - 1]),
                        power_nw=power,
                        area_ge=area,
                    )
                )
    return points


def best_cell_per_probability(
    points: Iterable[DesignPoint],
    width: int,
) -> Dict[float, DesignPoint]:
    """For each swept probability, the lowest-error cell at *width*.

    This is the paper's Fig. 5 reading: LPAA 7 wins at low p, LPAA 1 at
    high p, LPAA 6 is the near-best "Four Season" compromise.
    """
    best: Dict[float, DesignPoint] = {}
    for point in points:
        if point.width != width:
            continue
        current = best.get(point.p_input)
        if current is None or point.p_error < current.p_error:
            best[point.p_input] = point
    return best


def useful_width_limit(
    cell: CellSpec,
    p: float = 0.5,
    threshold: float = 0.5,
    max_width: int = 32,
) -> Optional[int]:
    """First width at which ``P(Error)`` exceeds *threshold* (or None).

    Quantifies the paper's §5 remark that "none of the LPAA is useful
    beyond 10-bits cascading" for equally probable inputs.
    """
    curve = error_curves(cell, max_width, p)
    above = np.nonzero(curve > threshold)[0]
    return int(above[0]) + 1 if above.size else None
