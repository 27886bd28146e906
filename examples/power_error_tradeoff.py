#!/usr/bin/env python3
"""From truth table to nanowatts: the gate-level substrate end to end.

Shows the circuit side of the library that stands in for the paper's
transistor-level data:

1. synthesise each LPAA cell from its truth table (Quine-McCluskey),
2. inspect the structural costs (gates, depth, gate-equivalents),
3. propagate signal probabilities / switching activity through a
   multi-bit ripple netlist,
4. estimate chain power with the Table-2-calibrated model and plot the
   error/power landscape textually.

Run:  python examples/power_error_tradeoff.py
"""

from repro.circuits.activity import propagate_probabilities, switching_activity
from repro.circuits.cells import synthesis_report
from repro.circuits.power import PowerModel
from repro.circuits.ripple import build_ripple_netlist
from repro.core.recursive import analyze_chain
from repro.reporting import ascii_table

CELLS = ["accurate"] + [f"LPAA {i}" for i in range(1, 8)]
WIDTH = 8


def main() -> None:
    # 1-2. Synthesis report for every cell.
    rows = [
        [r["name"], r["gates"], r["depth"], r["sum_terms"],
         r["cout_terms"], r["literals"]]
        for r in synthesis_report(CELLS)
    ]
    print(ascii_table(
        ["cell", "gates", "depth", "sum terms", "cout terms", "literals"],
        rows,
        title="Gate-level synthesis of every cell (Quine-McCluskey, verified)",
    ))
    print()

    # 3. Activity inside an 8-bit LPAA 1 ripple netlist.
    netlist = build_ripple_netlist("LPAA 1", WIDTH)
    inputs = {net: 0.5 for net in netlist.inputs}
    probabilities = propagate_probabilities(netlist, inputs)
    activity = switching_activity(probabilities)
    carries = [(f"c{i}", activity.get(f"c{i}", 0.0)) for i in range(1, WIDTH + 1)]
    print(f"8-bit LPAA 1 netlist: {netlist.num_gates()} gates, "
          f"depth {netlist.depth()}")
    print("carry-net switching activity along the chain "
          "(2p(1-p), independence model):")
    for net, alpha in carries:
        print(f"  {net}: {alpha:.4f}")
    print()

    # 4. The error/power landscape at p = 0.5.
    model = PowerModel()
    rows = []
    for name in CELLS:
        power = model.chain_power_nw(name, WIDTH)
        err = float(analyze_chain(name, WIDTH, 0.5, 0.5, 0.5).p_error)
        area = model.chain_area_ge(name, WIDTH)
        rows.append([name, err, power, area])
    rows.sort(key=lambda r: r[2])
    print(ascii_table(
        ["chain (x8)", "P(Error)", "power nW (model)", "area GE (model)"],
        rows, digits=4,
        title="8-bit chains: what the power savings cost in correctness",
    ))
    print("\n(model calibrated against the paper's published Table 2 "
          f"cell powers; scale = {model.scale_nw:.1f} nW/unit)")


if __name__ == "__main__":
    main()
