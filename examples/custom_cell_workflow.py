#!/usr/bin/env python3
"""Bring your own adder: the full workflow for a user-defined cell.

Designs a new approximate full adder, then walks it through every stage
of the library the way the paper intends its tooling to be used:

1. define the truth table and check its error cases,
2. derive the analysis masks and run the recursion,
3. verify exactness (masking analysis) and cross-check against the
   exhaustive oracle,
4. get the closed-form error equation,
5. synthesise it to gates, price it, and grade its stuck-at faults,
6. find where it belongs in an optimal hybrid chain,
7. save it to a JSON cell library for the CLI.

Run:  python examples/custom_cell_workflow.py
"""

import tempfile

from repro import (
    FullAdderTruthTable,
    analyze_chain,
    chain_is_exact,
    derive_matrices,
    masking_analysis,
    registry,
    symbolic_error_probability,
)
from repro.circuits.cells import synthesize_cell
from repro.circuits.faults import fault_detectability
from repro.circuits.power import PowerModel
from repro.explore.hybrid_search import optimal_hybrid
from repro.io import save_cell_library
from repro.reporting import ascii_table
from repro.simulation.exhaustive import exhaustive_error_probability


def main() -> None:
    # 1. A new cell: exact everywhere except it ignores the carry when
    #    both operands are 1 (saving the majority gate's third input).
    cell = FullAdderTruthTable.from_functions(
        lambda a, b, c: (a ^ b ^ c) if not (a and b) else 0,
        lambda a, b, c: (a & b) | (a & c) | (b & c),
        name="LazyMajority",
    )
    print(f"cell: {cell.name}, error cases: {cell.num_error_cases()}")
    for case in cell.error_cases():
        print(f"  ({case.a},{case.b},{case.cin}): sum {case.sum_out} "
              f"(exact {case.expected_sum}), cout {case.cout} "
              f"(exact {case.expected_cout})")
    print()

    # 2. masks + recursion.
    mkl = derive_matrices(cell)
    print(f"M = {list(mkl.m)}\nK = {list(mkl.k)}\nL = {list(mkl.l)}")
    result = analyze_chain(cell, width=8, p_a=0.3, p_b=0.3, p_cin=0.3)
    print(f"8-bit chain at p=0.3: P(Error) = {float(result.p_error):.6f}\n")

    # 3. exactness + oracle.
    report = masking_analysis(cell)
    print(f"recursion always exact for uniform chains: "
          f"{report.recursion_is_always_exact}")
    print(f"chain_is_exact at width 8: {chain_is_exact(cell, 8)}")
    oracle = exhaustive_error_probability(cell, 8, 0.3, 0.3, 0.3)
    print(f"exhaustive oracle          : {oracle:.6f} "
          f"(analytical {float(result.p_error):.6f})\n")

    # 4. the closed form.
    poly = symbolic_error_probability(cell, 2)
    print(f"P(Error)(p) for 2 bits = {poly.to_string()}\n")

    # 5. gates, power, faults.
    impl = synthesize_cell(cell)
    model = PowerModel()
    print(f"synthesis: {impl.gate_count()} gates, depth {impl.depth()}, "
          f"{model.area_ge(cell):.2f} GE, "
          f"{model.power_nw(cell):.1f} nW (model)")
    worst = fault_detectability(cell, width=8)[:3]
    print(ascii_table(
        ["worst stuck-at fault", "P(Error) faulty", "delta"],
        [[fi.fault.describe(), fi.p_error_faulty, fi.delta] for fi in worst],
        digits=4,
    ))
    print()

    # 6. where does it fit in a hybrid?
    candidates = ["LPAA 7", "LPAA 1", cell]
    best = optimal_hybrid(candidates, 8, p_a=0.3, p_b=0.3, p_cin=0.3)
    print(f"optimal 8-bit hybrid from {{LPAA 7, LPAA 1, LazyMajority}} "
          f"at p=0.3:")
    print(f"  {best.chain.describe()}  (P(Error) = {best.p_error:.6f})")
    for name in ("LPAA 7", "LPAA 1"):
        uniform = float(analyze_chain(name, 8, 0.3, 0.3, 0.3).p_error)
        print(f"  uniform {name}: {uniform:.6f}")
    print()

    # 7. persist for the CLI.
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        path = handle.name
    save_cell_library([cell], path)
    registry.register(cell, overwrite=True)
    print(f"saved to {path} -- analyse from the shell with:")
    print(f"  sealpaa analyze --cells-file {path} "
          f'--cell "LazyMajority" --width 8 --pa 0.3 --pb 0.3 --pcin 0.3')


if __name__ == "__main__":
    main()
