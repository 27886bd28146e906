"""Static timing analysis on gate-level netlists.

The low-*latency* half of the paper's taxonomy (GeAr, §2.2) trades error
for delay, so a delay model is needed to compare it with the low-power
cells on equal footing.  This module provides:

* per-gate-kind delay weights (unit-delay by default, overridable);
* :func:`arrival_times` / :func:`critical_path` -- longest-path STA over
  a :class:`repro.circuits.netlist.Netlist`, with the actual path nets;
* :func:`ripple_delay` -- delay of an N-bit chain of synthesised cells
  (delay grows linearly with N: the problem GeAr attacks);
* :func:`gear_delay_model` -- GeAr's delay: one L-bit sub-adder chain
  instead of N bits, ``L <= N`` (the paper's latency claim), using the
  same cell timing numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.exceptions import AnalysisError
from ..core.recursive import CellSpec
from ..gear.config import GeArConfig
from .cells import synthesize_cell
from .netlist import Netlist
from .ripple import build_ripple_netlist

#: Default gate delays in arbitrary units (inverter = 1).
DEFAULT_GATE_DELAYS: Dict[str, float] = {
    "ZERO": 0.0,   # constant tie-offs
    "ONE": 0.0,
    "BUF": 0.0,    # alias/wiring in this flow
    "NOT": 1.0,
    "NAND": 1.0,
    "NOR": 1.0,
    "AND": 1.5,    # NAND + inverter
    "OR": 1.5,
    "XOR": 2.5,
    "XNOR": 2.5,
}


def _delay_of(kind: str, delays: Mapping[str, float]) -> float:
    try:
        return float(delays[kind])
    except KeyError:
        raise AnalysisError(f"no delay defined for gate kind {kind!r}") from None


def arrival_times(
    netlist: Netlist,
    gate_delays: Optional[Mapping[str, float]] = None,
    input_arrivals: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Longest-path arrival time of every net.

    Primary inputs arrive at 0 unless *input_arrivals* overrides them.
    """
    delays = gate_delays or DEFAULT_GATE_DELAYS
    arrivals: Dict[str, float] = {
        net: float((input_arrivals or {}).get(net, 0.0))
        for net in netlist.inputs
    }
    for gate in netlist.topological_order():
        base = max((arrivals[i] for i in gate.inputs), default=0.0)
        arrivals[gate.output] = base + _delay_of(gate.kind, delays)
    return arrivals


@dataclass(frozen=True)
class CriticalPath:
    """Result of a longest-path query."""

    delay: float
    endpoint: str
    nets: Tuple[str, ...]   # input -> ... -> endpoint


def critical_path(
    netlist: Netlist,
    gate_delays: Optional[Mapping[str, float]] = None,
) -> CriticalPath:
    """The slowest input-to-output path and its delay."""
    delays = gate_delays or DEFAULT_GATE_DELAYS
    arrivals = arrival_times(netlist, delays)
    outputs = netlist.outputs
    if not outputs:
        raise AnalysisError(f"{netlist.name}: no primary outputs")
    endpoint = max(outputs, key=lambda net: arrivals[net])

    # Trace back: at each gate pick the latest-arriving input.
    drivers = {gate.output: gate for gate in netlist.gates}
    path: List[str] = [endpoint]
    current = endpoint
    while current in drivers:
        gate = drivers[current]
        if not gate.inputs:
            break  # constant driver: the path starts here
        current = max(gate.inputs, key=lambda net: arrivals[net])
        path.append(current)
    path.reverse()
    return CriticalPath(
        delay=arrivals[endpoint], endpoint=endpoint, nets=tuple(path)
    )


def cell_delay(
    cell: CellSpec,
    gate_delays: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Worst input-to-output delays of one synthesised cell.

    Returns ``{"sum": ..., "cout": ..., "cin_to_cout": ...}`` --
    ``cin_to_cout`` is the increment each extra ripple stage adds to the
    carry chain.
    """
    delays = gate_delays or DEFAULT_GATE_DELAYS
    impl = synthesize_cell(cell)
    arrivals = arrival_times(impl.netlist, delays)
    only_cin = arrival_times(
        impl.netlist, delays,
        input_arrivals={"a": float("-inf"), "b": float("-inf"), "cin": 0.0},
    )
    cin_to_cout = only_cin["cout"]
    if cin_to_cout == float("-inf"):
        cin_to_cout = 0.0  # carry does not depend on cin (e.g. LPAA 5)
    return {
        "sum": arrivals["sum"],
        "cout": arrivals["cout"],
        "cin_to_cout": cin_to_cout,
    }


def ripple_delay(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    gate_delays: Optional[Mapping[str, float]] = None,
) -> float:
    """Critical-path delay of an N-bit structural ripple chain."""
    netlist = build_ripple_netlist(cell, width)
    return critical_path(netlist, gate_delays).delay


def gear_delay_model(
    config: GeArConfig,
    cell: CellSpec = "accurate",
    gate_delays: Optional[Mapping[str, float]] = None,
) -> float:
    """GeAr delay: all sub-adders run in parallel, so the critical path
    is a single L-bit ripple chain of the given cell (paper §2.2: "GeAr
    limits the carry propagation delay to L-bit sub-adders instead of
    N-bits")."""
    return ripple_delay(cell, config.l, gate_delays)


def latency_error_tradeoff(
    n: int,
    cell: CellSpec = "accurate",
    gate_delays: Optional[Mapping[str, float]] = None,
) -> List[Dict[str, float]]:
    """Delay vs error for every valid GeAr(N, R, P) plus the exact RCA.

    The rows the LLAA literature plots: each configuration's critical
    path (sub-adder length L) against its exact error probability.
    """
    from .. import engine as _engine
    from ..core.adder_zoo import from_gear

    rows: List[Dict[str, float]] = []
    for config in GeArConfig.valid_configs(n):
        request = _engine.AnalysisRequest.zoo(from_gear(config))
        rows.append(
            {
                "r": config.r,
                "p": config.p,
                "l": config.l,
                "subadders": config.num_subadders,
                "delay": gear_delay_model(config, cell, gate_delays),
                "p_error": _engine.run(request).p_error,
            }
        )
    rows.sort(key=lambda row: (row["delay"], row["p_error"]))
    return rows
