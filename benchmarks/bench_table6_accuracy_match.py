"""Table 6: accuracy match of the proposed method vs exhaustive
simulation.

Two scenarios exactly as the paper frames them:

* **equally probable inputs** -- finite case space of ``2^(2N+1)``; the
  analytical result must match the exhaustive count *to machine
  precision* ("precisely up to any decimal place");
* **non-equally probable inputs** -- 1 million Monte-Carlo cases; the
  match is to about the 3rd decimal place, and increasing the sample
  count tightens it (checked by the MC-convergence ablation bench).
"""

from __future__ import annotations

import pytest

from repro.core.adders import PAPER_LPAAS
from repro.core.recursive import analyze_chain
from repro.reporting import ascii_table
from repro.simulation.exhaustive import exhaustive_error_count
from repro.simulation.montecarlo import simulate_error_probability

from conftest import emit

WIDTH = 6
MC_SAMPLES = 1_000_000
MC_POINT = 0.3


def test_table6_equiprobable_exact_match(benchmark):
    rows = []
    for cell in PAPER_LPAAS:
        errors, total = exhaustive_error_count(cell, WIDTH)
        analytical = float(analyze_chain(cell, WIDTH, 0.5, 0.5, 0.5).p_error)
        rows.append([cell.name, total, errors / total, analytical])
        assert errors / total == pytest.approx(analytical, abs=1e-14)
    emit(ascii_table(
        ["LPAA", f"cases 2^{2 * WIDTH + 1}", "P(E) exhaustive", "P(E) analytical"],
        rows, digits=10,
        title="Table 6 row 1: equally probable inputs -> exact match",
    ))
    assert all(row[1] == 2 ** (2 * WIDTH + 1) for row in rows)
    benchmark.pedantic(
        lambda: exhaustive_error_count(PAPER_LPAAS[0], WIDTH),
        rounds=3, iterations=1,
    )


def test_table6_inequiprobable_mc_match(benchmark):
    rows = []
    for cell in PAPER_LPAAS:
        analytical = float(
            analyze_chain(cell, WIDTH, MC_POINT, MC_POINT, MC_POINT).p_error
        )
        mc = simulate_error_probability(
            cell, WIDTH, MC_POINT, MC_POINT, MC_POINT,
            samples=MC_SAMPLES, seed=17,
        )
        rows.append([cell.name, analytical, mc.p_error,
                     abs(analytical - mc.p_error)])
        # "up to 3rd decimal place" with 1M samples.
        assert abs(analytical - mc.p_error) < 1.5e-3
    emit(ascii_table(
        ["LPAA", "P(E) analytical", "P(E) MC 1M", "|diff|"],
        rows, digits=6,
        title=f"Table 6 row 2: p = {MC_POINT} inputs, 1M Monte-Carlo cases",
    ))
    benchmark.pedantic(
        lambda: simulate_error_probability(
            PAPER_LPAAS[0], WIDTH, MC_POINT, MC_POINT, MC_POINT,
            samples=100_000, seed=1,
        ),
        rounds=3, iterations=1,
    )
