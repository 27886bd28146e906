"""Ablation: the three GeAr analysis methods against each other.

The paper claims (§1.1) its recursion philosophy extends to low-latency
adders "with less computational overhead" than inclusion-exclusion.
This bench compares, on GeAr configurations of growing sub-adder count:

* the exact linear DP (this repo's LLAA analogue of the recursion: the
  zoo's carry-cut DP, engine ``zoo-dp``),
* the traditional IE expansion (2^(k-1) - 1 terms),
* Monte-Carlo simulation (engine ``zoo-mc``),

asserting numerical agreement and the cost separation.
"""

from __future__ import annotations

import time

import pytest

from repro import engine
from repro.core.adder_zoo import from_gear
from repro.engine import AnalysisRequest
from repro.gear.analysis import gear_inclusion_exclusion
from repro.gear.config import GeArConfig
from repro.reporting import ascii_table

from conftest import emit


def gear_p_error(config, **options):
    """GeAr error rate through the engine (``zoo-dp`` unless forced)."""
    return engine.run(AnalysisRequest.zoo(from_gear(config)),
                      **options).p_error

#: GeAr(N, R, P) configurations with k = 3 .. 13 sub-adders.
CONFIGS = [
    GeArConfig(8, 2, 2),    # k = 3
    GeArConfig(12, 2, 2),   # k = 5
    GeArConfig(20, 2, 2),   # k = 9
    GeArConfig(28, 2, 2),   # k = 13
]


def test_ablation_gear_methods_agree(benchmark):
    rows = []
    for config in CONFIGS:
        start = time.perf_counter()
        dp = gear_p_error(config)
        dp_seconds = time.perf_counter() - start

        start = time.perf_counter()
        ie = gear_inclusion_exclusion(config)
        ie_seconds = time.perf_counter() - start

        assert ie.p_error == pytest.approx(dp, abs=1e-9)
        rows.append([
            config.describe(), dp, ie.terms_evaluated,
            dp_seconds * 1e3, ie_seconds * 1e3,
        ])
    emit(ascii_table(
        ["config", "P(E)", "IE terms", "DP ms", "IE ms"],
        rows, digits=4,
        title="Ablation: GeAr linear DP vs inclusion-exclusion",
    ))
    # cost separation at k = 13: 4095 IE terms vs one linear pass.
    assert rows[-1][2] == 2 ** 12 - 1
    assert rows[-1][4] > 10 * max(rows[-1][3], 1e-4)

    benchmark(lambda: gear_p_error(CONFIGS[-1]))


def test_ablation_gear_monte_carlo_validates_dp(benchmark):
    config = GeArConfig(16, 2, 2)
    dp = gear_p_error(config)
    mc = gear_p_error(config, engine="zoo-mc", samples=400_000, seed=3)
    emit(f"GeAr(16,2,2): DP P(E) = {dp:.6f}, MC(400k) = {mc:.6f}")
    assert abs(dp - mc) < 3e-3
    benchmark.pedantic(
        lambda: gear_p_error(config, engine="zoo-mc", samples=100_000,
                             seed=1),
        rounds=3, iterations=1,
    )


def test_ablation_gear_dp_scales_to_wide_words(benchmark):
    """The DP at GeAr(128, 4, 4): far beyond any enumerative method."""
    config = GeArConfig(128, 4, 4)
    p = benchmark(lambda: gear_p_error(config))
    assert 0.0 < p < 1.0
