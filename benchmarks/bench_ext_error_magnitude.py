"""Extension bench: how large are the errors (not just how frequent).

The paper reports error probability only; applications also need
magnitude.  This bench regenerates, at the Table 7 operating point
(p = 0.1, N = 8), the exact error PMF, the derived MED/NMED/MSE/WCE
metrics and the per-bit error marginals -- all analytical -- and
cross-validates against a million-sample simulation.  The exact DP
rung's ``med`` answer (linear folds, no PMF) must equal the PMF-derived
MED within 1e-12 relative and agree with the simulation.
"""

from __future__ import annotations

import math

import pytest

from repro import engine
from repro.core.adders import PAPER_LPAAS
from repro.core.magnitude import error_moments, error_pmf
from repro.core.metrics import metrics_from_pmf, metrics_from_samples
from repro.core.sum_analysis import bit_error_probabilities
from repro.engine import AnalysisRequest
from repro.reporting import ascii_table
from repro.simulation.montecarlo import simulate_samples

from conftest import emit

P = 0.1
WIDTH = 8


def _dp_med(cell):
    """The ``distribution-dp`` rung's ``med`` answer at the operating
    point."""
    request = AnalysisRequest.distribution(cell, WIDTH, P, P, P, kind="med")
    return engine.run(request=request, engine="distribution-dp")


def test_ext_magnitude_metrics_table(benchmark):
    rows = []
    for cell in PAPER_LPAAS:
        pmf = error_pmf(cell, WIDTH, P, P, P)
        metrics = metrics_from_pmf(pmf, WIDTH)
        moments = error_moments(cell, WIDTH, P, P, P)
        dp = _dp_med(cell)
        assert math.isclose(dp.med, metrics.med, rel_tol=1e-12), cell.name
        assert math.isclose(dp.p_error, metrics.error_rate, rel_tol=1e-12)
        rows.append([
            cell.name, metrics.error_rate, metrics.med, metrics.nmed,
            moments.rms, metrics.wce,
        ])
    emit(ascii_table(
        ["cell", "ER", "MED", "NMED", "RMS", "WCE"],
        rows, digits=4,
        title=f"Ext: exact error-magnitude metrics at p = {P}, N = {WIDTH}",
    ))
    # ER must reproduce Table 7's column ordering: LPAA 7 best, 2/3 worst.
    ers = {row[0]: row[1] for row in rows}
    assert min(ers, key=ers.get) == "LPAA 7"
    assert max(ers, key=ers.get) in ("LPAA 2", "LPAA 3")
    # magnitude tells a different story than rate: LPAA 2/3's frequent
    # errors are small (their WCE stays well under the worst cells').
    wces = {row[0]: row[5] for row in rows}
    assert wces["LPAA 2"] < max(wces.values())

    benchmark.pedantic(
        lambda: error_pmf(PAPER_LPAAS[5], WIDTH, P, P, P),
        rounds=5, iterations=1,
    )


def test_ext_magnitude_vs_simulation(benchmark):
    cell = "LPAA 6"
    pmf = error_pmf(cell, WIDTH, P, P, P)
    analytic = metrics_from_pmf(pmf, WIDTH)
    approx, exact = simulate_samples(cell, WIDTH, P, P, P,
                                     samples=1_000_000, seed=5)
    sampled = metrics_from_samples(approx, exact, WIDTH)
    dp = _dp_med(cell)
    emit(f"Ext: {cell} MED analytic {analytic.med:.5f} (linear DP "
         f"{dp.med:.5f}) vs sampled {sampled.med:.5f}; MSE "
         f"{analytic.mse:.4f} vs {sampled.mse:.4f}")
    assert math.isclose(dp.med, analytic.med, rel_tol=1e-12)
    assert sampled.med == pytest.approx(dp.med, rel=0.02)
    assert sampled.error_rate == pytest.approx(analytic.error_rate, abs=2e-3)
    assert sampled.med == pytest.approx(analytic.med, rel=0.02)
    assert sampled.mse == pytest.approx(analytic.mse, rel=0.05)
    assert sampled.wce <= analytic.wce

    benchmark.pedantic(
        lambda: error_moments(cell, 64, P, P, P), rounds=5, iterations=1
    )


def test_ext_per_bit_marginals(benchmark):
    cell = "LPAA 6"
    bits, cout = bit_error_probabilities(cell, WIDTH, P, P, P)
    emit(ascii_table(
        ["output bit", "P(bit wrong)"],
        [[f"s{i}", p] for i, p in enumerate(bits)] + [["cout", cout]],
        digits=5,
        title=f"Ext: exact per-bit error marginals ({cell}, p = {P})",
    ))
    # LPAA 6's LSB only errs through its carry, never its own sum.
    assert bits[0] == pytest.approx(0.0)
    # interior bits settle to a steady-state marginal.
    assert bits[-1] == pytest.approx(bits[-2], abs=5e-3)

    benchmark(lambda: bit_error_probabilities(cell, WIDTH, P, P, P))
