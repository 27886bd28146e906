#!/usr/bin/env python3
"""Quickstart: the paper's method in five minutes.

Walks the core API end to end:

1. look at an approximate cell's truth table,
2. analyse a multi-bit chain analytically (the paper's Algorithm 1),
3. reproduce the paper's Table 4 worked example,
4. cross-check against exhaustive and Monte-Carlo simulation,
5. go beyond the paper: exact error-magnitude metrics.

Run:  python examples/quickstart.py
"""

from repro import (
    LPAA1,
    analyze_chain,
    error_pmf,
    metrics_from_pmf,
)
from repro.core.stages import format_trace_table, trace_chain
from repro.reporting import ascii_table
from repro.simulation.exhaustive import exhaustive_error_probability
from repro.simulation.montecarlo import simulate_error_probability


def main() -> None:
    # 1. A low-power approximate full adder is just a truth table.
    print("LPAA 1 truth table (paper Table 1):")
    rows = []
    for idx in range(8):
        a, b, cin = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        s, c = LPAA1.rows[idx]
        rows.append([f"{a}{b}{cin}", s, c])
    print(ascii_table(["A B Cin", "Sum", "Cout"], rows))
    print(f"error cases: {LPAA1.num_error_cases()} of 8 rows\n")

    # 2. Analyse an 8-bit ripple chain of LPAA 1 cells where every input
    #    bit is 1 with probability 0.2.
    result = analyze_chain("LPAA 1", width=8, p_a=0.2, p_b=0.2, p_cin=0.2)
    print(f"8-bit LPAA 1 at p=0.2:  P(Succ) = {result.p_success:.6f}, "
          f"P(Error) = {result.p_error:.6f}\n")

    # 3. The paper's Table 4 worked example, stage by stage.
    traced = trace_chain(
        "LPAA 1", width=4,
        p_a=[0.9, 0.5, 0.4, 0.8],
        p_b=[0.8, 0.7, 0.6, 0.9],
        p_cin=0.5,
    )
    print("Paper Table 4 (4-bit LPAA 1, per-bit probabilities):")
    print(format_trace_table(traced))
    print(f"-> P(Succ) = {traced.p_success:.6f}  (paper prints 0.738476)\n")

    # 4. Validation: the analytical number is exact.
    analytical = float(analyze_chain("LPAA 6", 8, 0.1, 0.1, 0.1).p_error)
    exhaustive = exhaustive_error_probability("LPAA 6", 8, 0.1, 0.1, 0.1)
    monte_carlo = simulate_error_probability(
        "LPAA 6", 8, 0.1, 0.1, 0.1, samples=1_000_000, seed=0
    ).p_error
    print("Cross-validation (LPAA 6, N=8, p=0.1 -- a Table 7 entry):")
    print(ascii_table(
        ["method", "P(Error)"],
        [["analytical recursion", analytical],
         ["weighted exhaustive enumeration", exhaustive],
         ["Monte-Carlo, 1M samples", monte_carlo]],
        digits=6,
    ))
    print()

    # 5. Beyond the paper: how LARGE are the errors?
    pmf = error_pmf("LPAA 6", width=8, p_a=0.1, p_b=0.1, p_cin=0.1)
    metrics = metrics_from_pmf(pmf, width=8)
    print("Exact error-magnitude metrics for the same adder:")
    print(f"  error rate : {metrics.error_rate:.6f}")
    print(f"  MED        : {metrics.med:.4f}")
    print(f"  NMED       : {metrics.nmed:.6f}")
    print(f"  RMSE       : {metrics.rmse:.4f}")
    print(f"  worst case : +/-{metrics.wce}")


if __name__ == "__main__":
    main()
