"""Table 7: analytical vs simulated P(E) for all seven LPAAs,
N = 2..12, with A_i = B_i = C_in = 0.1.

The analytical column must reproduce the paper's printed values to the
5th decimal; the simulation column (1M Monte-Carlo samples, like the
paper's LabVIEW run) must agree with the analytical one to about the 3rd
decimal.  For N <= 8 we additionally run the *weighted exhaustive*
oracle, which matches the analytical values to machine precision.
"""

from __future__ import annotations

import pytest

from repro.core.adders import PAPER_LPAAS
from repro.core.recursive import analyze_chain
from repro.reporting import ascii_table
from repro.simulation.exhaustive import exhaustive_error_probability
from repro.simulation.montecarlo import simulate_error_probability

from conftest import emit

P = 0.1
WIDTHS = [2, 4, 6, 8, 10, 12]
MC_SAMPLES = 1_000_000

#: The paper's analytical columns, verbatim.
PAPER_ANALYTICAL = {
    2: [0.30780, 0.9271, 0.95707, 0.31851, 0.27000, 0.1143, 0.01980],
    4: [0.53090, 0.99468, 0.99763, 0.54033, 0.40950, 0.13533, 0.02333],
    6: [0.68240, 0.99961, 0.99986, 0.68999, 0.52170, 0.15266, 0.02685],
    8: [0.78498, 0.99997, 0.99999, 0.79092, 0.61258, 0.16953, 0.03035],
    10: [0.85443, 0.99999, 0.99999, 0.85899, 0.68618, 0.18605, 0.03385],
    12: [0.90145, 0.99999, 0.99999, 0.90490, 0.74581, 0.20225, 0.03733],
}


def _analytical_row(width: int):
    return [
        float(analyze_chain(cell, width, P, P, P).p_error)
        for cell in PAPER_LPAAS
    ]


def test_table7_analytical_column(benchmark):
    rows = []
    for width in WIDTHS:
        ours = _analytical_row(width)
        rows.append([width, *ours])
        for got, printed in zip(ours, PAPER_ANALYTICAL[width]):
            assert got == pytest.approx(printed, abs=1.1e-5)
    emit(ascii_table(
        ["N", *[cell.name for cell in PAPER_LPAAS]],
        rows, digits=5,
        title="Table 7 (analytical): P(E) at A=B=Cin=0.1",
    ))
    benchmark(lambda: _analytical_row(12))


def test_table7_simulation_column(benchmark):
    emit("Table 7 (simulation column): 1M Monte-Carlo samples per entry")
    rows = []
    for width in (2, 8, 12):  # representative subset for runtime
        for idx, cell in enumerate(PAPER_LPAAS):
            analytical = float(analyze_chain(cell, width, P, P, P).p_error)
            mc = simulate_error_probability(
                cell, width, P, P, P, samples=MC_SAMPLES, seed=width * 10 + idx
            )
            rows.append([f"{cell.name} N={width}", analytical, mc.p_error,
                         abs(analytical - mc.p_error)])
            assert abs(analytical - mc.p_error) < 2e-3
    emit(ascii_table(["Case", "Analyt.", "Sim.", "|diff|"], rows, digits=5))
    benchmark.pedantic(
        lambda: simulate_error_probability(
            PAPER_LPAAS[5], 8, P, P, P, samples=200_000, seed=0
        ),
        rounds=3, iterations=1,
    )


def test_table7_exhaustive_oracle(benchmark):
    # Stronger than the paper: the weighted enumeration is exact at
    # p = 0.1, not just for equiprobable inputs.
    for width in (2, 4, 6, 8):
        for cell in PAPER_LPAAS:
            exact = exhaustive_error_probability(cell, width, P, P, P)
            analytical = float(analyze_chain(cell, width, P, P, P).p_error)
            assert exact == pytest.approx(analytical, abs=1e-12)
    emit("Table 7 oracle: weighted exhaustive == analytical to 1e-12 "
         "for N <= 8, all 7 cells.")
    benchmark.pedantic(
        lambda: exhaustive_error_probability(PAPER_LPAAS[0], 8, P, P, P),
        rounds=3, iterations=1,
    )
