"""Error-magnitude engines: linear moments vs the full-PMF DP.

The headline magnitude metrics do not need the full error law.
``error_moments`` (MED/MSE in O(N)) and ``worst_case_error`` (WCE via
the interval DP, O(N) and exact at any width) must beat materialising
the PMF by a wide margin -- while agreeing with it exactly where the PMF
is computable.  The full-PMF path is ``error_pmf`` plus a Python MED
sum; its O(2^N) gap is gated at width 20 (past the exact guard,
``max_entries`` raised explicitly), where it dominates the per-call
overhead.  At width 16 the same path is recorded as ``full_pmf_s``, and
a ``distribution-dp`` ``error_distribution`` answer (the dense kernel's
PMF arrays plus the linear-fold metrics) as ``pmf_kernel_s``; each time
is the best of three calls.  The
truncated rung's ``error_distribution`` answer is timed at width 32,
with its PMF's MSE drift against the exact O(N) moments, pinning the
documented "bounded drift" claim with a number.

The measured trajectory lands in ``BENCH_errdist.json``
(``sealpaa-bench-v1``; CI compares it informationally against the
committed baseline).
"""

from __future__ import annotations

import time

from repro import engine
from repro.core.magnitude import (
    error_moments,
    error_pmf,
    worst_case_error,
)
from repro.engine.request import AnalysisRequest
from repro.reporting import ascii_table

from bench_trajectory import metric, write_trajectory
from conftest import bench_output_path, emit

CELL_NAMES = [f"LPAA {i}" for i in range(1, 8)]
ZOO_WIDTH = 8
PMF_CELL = "LPAA 5"
PMF_WIDTH = 16
GATE_WIDTH = 20
GATE_MAX_ENTRIES = 1 << 23
TRUNCATED_WIDTH = 32
WCE_WIDTH = 64
MIN_SPEEDUP = 25.0
MAX_TRUNCATED_DRIFT = 1e-2


def test_moments_match_the_pmf_across_the_zoo():
    """Breadth first: O(N) moments == PMF moments for every paper cell."""
    for cell in CELL_NAMES:
        pmf = error_pmf(cell, ZOO_WIDTH, 0.5, 0.5, 0.5)
        mom = error_moments(cell, ZOO_WIDTH, 0.5, 0.5, 0.5)
        mean_ref = sum(d * p for d, p in pmf.items())
        m2_ref = sum(d * d * p for d, p in pmf.items())
        assert abs(mom.mean - mean_ref) < 1e-9
        assert abs(mom.second_moment - m2_ref) < 1e-6
        wce = worst_case_error(cell, ZOO_WIDTH)
        assert wce.wce == max(abs(d) for d in pmf)
    emit(f"zoo cross-check: {len(CELL_NAMES)} cells at width {ZOO_WIDTH}, "
         "moments and WCE equal the PMF reductions")


def _best_of(repeats, fn):
    """(fastest wall time, last result) over *repeats* calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def _full_pmf(width, **kwargs):
    pmf = error_pmf(PMF_CELL, width, 0.5, 0.5, 0.5, **kwargs)
    return pmf, sum(abs(d) * p for d, p in pmf.items())


def _kernel(width):
    request = AnalysisRequest.distribution(PMF_CELL, width,
                                           kind="error_distribution")
    result = engine.run(request, engine="distribution-dp")
    return result.distribution, result


def _linear(width):
    return (error_moments(PMF_CELL, width, 0.5, 0.5, 0.5),
            worst_case_error(PMF_CELL, width))


def test_linear_metrics_vs_full_pmf(benchmark):
    """MED/MSE/WCE without the PMF: >= 25x at width 20."""
    pmf_s, (pmf, pmf_med) = _best_of(3, lambda: _full_pmf(PMF_WIDTH))
    kernel_s, (kernel_pmf, quality) = _best_of(
        3, lambda: _kernel(PMF_WIDTH))
    linear_s, (mom, wce) = _best_of(3, lambda: _linear(PMF_WIDTH))
    assert abs(mom.second_moment
               - sum(d * d * p for d, p in pmf.items())) < 1e-3
    assert abs(quality.med - pmf_med) < 1e-9 * pmf_med
    assert wce.wce == quality.wce == max(abs(d) for d in pmf)
    assert dict(kernel_pmf) == pmf

    gate_pmf_s, (gate_pmf, gate_med) = _best_of(3, lambda: _full_pmf(
        GATE_WIDTH, max_entries=GATE_MAX_ENTRIES))
    gate_linear_s, (gate_mom, gate_wce) = _best_of(
        3, lambda: _linear(GATE_WIDTH))
    assert gate_wce.wce == max(abs(d) for d in gate_pmf)
    speedup = (gate_pmf_s / gate_linear_s if gate_linear_s > 0
               else float("inf"))

    # The truncated rung past the exact guard: wall time of a PMF
    # answer, and its PMF's MSE drift against the independent exact
    # O(N) moments (the answer's own scalars are the exact folds').
    request = AnalysisRequest.distribution(
        PMF_CELL, TRUNCATED_WIDTH, kind="error_distribution")
    start = time.perf_counter()
    truncated = engine.run(request, engine="distribution-dp-truncated")
    truncated_s = time.perf_counter() - start
    mom32 = error_moments(PMF_CELL, TRUNCATED_WIDTH, 0.5, 0.5, 0.5)
    pmf_mse = sum(d * d * p for d, p in truncated.distribution)
    drift = abs(pmf_mse - mom32.second_moment) / mom32.second_moment

    start = time.perf_counter()
    wce64 = worst_case_error(PMF_CELL, WCE_WIDTH)
    wce64_s = time.perf_counter() - start
    assert wce64.wce == 2 ** (WCE_WIDTH - 1)

    emit(ascii_table(
        ["path", "seconds", "answers"],
        [[f"full PMF DP (width {PMF_WIDTH}, {len(pmf)} deltas)",
          f"{pmf_s:.4f}", f"MED={pmf_med:.2f}"],
         [f"distribution-dp PMF answer (width {PMF_WIDTH})",
          f"{kernel_s:.4f}", f"MED={quality.med:.2f}"],
         [f"O(N) moments + interval DP (width {PMF_WIDTH})",
          f"{linear_s:.5f}",
          f"MSE={mom.second_moment:.3g}, WCE={wce.wce}"],
         [f"full PMF DP (width {GATE_WIDTH}, {len(gate_pmf)} deltas)",
          f"{gate_pmf_s:.4f}", f"MED={gate_med:.2f}"],
         [f"O(N) moments + interval DP (width {GATE_WIDTH})",
          f"{gate_linear_s:.5f}", f"{speedup:.0f}x faster"],
         [f"truncated DP PMF answer (width {TRUNCATED_WIDTH})",
          f"{truncated_s:.3f}", f"MSE drift {drift:.2e}"],
         [f"interval DP WCE (width {WCE_WIDTH})",
          f"{wce64_s:.5f}", f"WCE=2^{WCE_WIDTH - 1}"]],
        title=f"{PMF_CELL}: magnitude metrics with and without the PMF",
    ))

    write_trajectory(bench_output_path("BENCH_errdist.json"),
                     "error_metrics", [
        metric("full_pmf_s", pmf_s, unit="s", higher_is_better=False),
        metric("pmf_kernel_s", kernel_s, unit="s", higher_is_better=False),
        metric("linear_metrics_s", linear_s, unit="s",
               higher_is_better=False),
        metric("full_pmf_w20_s", gate_pmf_s, unit="s",
               higher_is_better=False),
        metric("linear_metrics_w20_s", gate_linear_s, unit="s",
               higher_is_better=False),
        metric("moments_speedup_w20_x", speedup, unit="x"),
        metric("truncated_w32_s", truncated_s, unit="s",
               higher_is_better=False),
        metric("truncated_mse_drift_rel", drift, unit="",
               higher_is_better=False),
        metric("wce_w64_s", wce64_s, unit="s", higher_is_better=False),
    ])

    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x over the full-PMF DP at width "
        f"{GATE_WIDTH}, got {speedup:.1f}x"
    )
    assert drift < MAX_TRUNCATED_DRIFT, (
        f"truncated MSE drift {drift:.2e} exceeds the documented bound"
    )

    benchmark(lambda: error_moments(PMF_CELL, PMF_WIDTH, 0.5, 0.5, 0.5))
