"""Ablation: inclusion-exclusion baseline vs the recursive method.

The paper's central argument (§3 + Table 3): IE computes the same
quantity at exponential cost.  This bench demonstrates both halves on
running code -- numerical identity at every feasible width, and the
measured cost blow-up (terms and wall-clock) against the flat recursive
cost.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines import chain_inclusion_exclusion
from repro.core.recursive import analyze_chain
from repro.reporting import ascii_table

from conftest import emit

POINT = dict(p_a=0.3, p_b=0.6, p_cin=0.5)
WIDTHS = [2, 4, 6, 8, 10, 12, 14]


def test_ablation_ie_equals_recursion_at_exponential_cost(benchmark):
    rows = []
    for width in WIDTHS:
        start = time.perf_counter()
        report = chain_inclusion_exclusion(
            "LPAA 1", width, POINT["p_a"], POINT["p_b"], POINT["p_cin"])
        ie_seconds = time.perf_counter() - start

        start = time.perf_counter()
        recursive = float(
            analyze_chain("LPAA 1", width, POINT["p_a"], POINT["p_b"],
                          POINT["p_cin"]).p_error
        )
        rec_seconds = time.perf_counter() - start

        assert report.p_error == pytest.approx(recursive, abs=1e-9)
        rows.append([
            width, report.terms_evaluated, ie_seconds * 1e3,
            rec_seconds * 1e3, report.p_error,
        ])
    emit(ascii_table(
        ["N", "IE terms", "IE ms", "recursive ms", "P(E) (identical)"],
        rows, digits=4,
        title="Ablation: inclusion-exclusion vs recursion",
    ))
    # Cost shape: IE terms double per stage; IE time at N=14 dwarfs the
    # recursion's.
    assert rows[-1][1] == 2 ** 14 - 1
    assert rows[-1][2] > 50 * max(rows[-1][3], 1e-4)

    benchmark.pedantic(
        lambda: chain_inclusion_exclusion(
            "LPAA 1", 10, POINT["p_a"], POINT["p_b"], POINT["p_cin"]),
        rounds=3, iterations=1,
    )


def test_ablation_recursive_kernel_at_ie_limit(benchmark):
    """The recursion at a width (20) where IE already needs ~1M terms."""
    result = benchmark(
        lambda: analyze_chain("LPAA 1", 20, POINT["p_a"], POINT["p_b"],
                              POINT["p_cin"]).p_error
    )
    assert 0.0 <= float(result) <= 1.0
