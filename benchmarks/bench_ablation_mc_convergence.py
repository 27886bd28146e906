"""Ablation: Monte-Carlo sample count vs agreement with the analytical
value.

Table 6's footnote claims the 3rd-decimal match "can be increased for
better precision match" by raising the sample count.  This bench sweeps
the count from 1e3 to 1e6 and checks the error shrinks like 1/sqrt(n)
(within generous noise bounds, averaged over seeds).
"""

from __future__ import annotations

import numpy as np

from repro.core.recursive import analyze_chain
from repro.reporting import ascii_table
from repro.simulation.montecarlo import simulate_error_probability

from conftest import emit

CELL = "LPAA 6"
WIDTH = 8
P = 0.1
SAMPLE_COUNTS = [1_000, 10_000, 100_000, 1_000_000]
SEEDS = range(5)


def test_ablation_mc_convergence(benchmark):
    analytical = float(analyze_chain(CELL, WIDTH, P, P, P).p_error)
    rows = []
    mean_errors = []
    for samples in SAMPLE_COUNTS:
        errors = [
            abs(
                simulate_error_probability(
                    CELL, WIDTH, P, P, P, samples=samples, seed=seed
                ).p_error
                - analytical
            )
            for seed in SEEDS
        ]
        mean_error = float(np.mean(errors))
        mean_errors.append(mean_error)
        theoretical = (analytical * (1 - analytical) / samples) ** 0.5
        rows.append([samples, mean_error, theoretical])
    emit(ascii_table(
        ["samples", "mean |sim - analytical|", "theoretical std error"],
        rows, digits=6,
        title=f"Ablation: MC convergence to P(E)={analytical:.5f} "
              f"({CELL}, N={WIDTH}, p={P})",
    ))
    # 1/sqrt(n): 1000x more samples ~ 31.6x less error; accept > 5x.
    assert mean_errors[-1] < mean_errors[0] / 5
    # the paper's operating point: 3rd-decimal agreement at 1M samples.
    assert mean_errors[-1] < 1.5e-3

    benchmark.pedantic(
        lambda: simulate_error_probability(CELL, WIDTH, P, P, P,
                                           samples=100_000, seed=0),
        rounds=3, iterations=1,
    )
