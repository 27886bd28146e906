"""Extension bench: configurable GeAr error correction (paper ref [11]).

Regenerates the accuracy-configurability curve: residual error
probability versus correction budget, computed exactly by the
error-count DP and cross-checked against functional simulation of the
correcting adder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import engine
from repro.core.adder_zoo import from_gear
from repro.engine import AnalysisRequest
from repro.gear.config import GeArConfig
from repro.gear.correction import (
    corrected_error_probability,
    error_count_distribution,
    expected_corrections,
    gear_add_corrected,
)
from repro.reporting import ascii_table

from conftest import emit

CONFIG = GeArConfig(16, 2, 2)


def test_ext_correction_budget_curve(benchmark):
    budgets = list(range(CONFIG.num_subadders))
    residuals = [
        corrected_error_probability(CONFIG, b, 0.5, 0.5) for b in budgets
    ]
    emit(ascii_table(
        ["correction budget", "residual P(Error)"],
        list(zip(budgets, residuals)),
        digits=6,
        title=f"Ext: {CONFIG.describe()} accuracy configurability",
    ))
    emit(f"expected corrections for an exact result: "
         f"{expected_corrections(CONFIG, 0.5, 0.5):.4f}")

    # budget 0 == plain GeAr; full budget == exact; monotone in between.
    assert residuals[0] == pytest.approx(
        engine.run(AnalysisRequest.zoo(from_gear(CONFIG))).p_error,
        abs=1e-12
    )
    assert residuals[-1] == pytest.approx(0.0, abs=1e-12)
    assert residuals == sorted(residuals, reverse=True)

    pmf = error_count_distribution(CONFIG, 0.5, 0.5)
    assert sum(pmf) == pytest.approx(1.0, abs=1e-12)

    benchmark(lambda: [
        corrected_error_probability(CONFIG, b, 0.5, 0.5) for b in budgets
    ])


def test_ext_correction_functional_cross_check(benchmark):
    rng = np.random.default_rng(11)
    trials = 20_000
    budget = 1
    a = rng.integers(0, 1 << CONFIG.n, trials)
    b = rng.integers(0, 1 << CONFIG.n, trials)
    wrong = sum(
        1
        for j in range(trials)
        if gear_add_corrected(CONFIG, int(a[j]), int(b[j]), budget=budget)[0]
        != int(a[j]) + int(b[j])
    )
    analytical = corrected_error_probability(CONFIG, budget, 0.5, 0.5)
    emit(f"Ext: budget-1 residual: analytical {analytical:.5f}, "
         f"simulated {wrong / trials:.5f} ({trials} trials)")
    assert wrong / trials == pytest.approx(analytical, abs=7e-3)

    benchmark.pedantic(
        lambda: gear_add_corrected(CONFIG, 54321, 12345, budget=1),
        rounds=20, iterations=10,
    )
