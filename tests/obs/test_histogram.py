"""Bounded histograms and the rolling-window Timer memory contract."""

from __future__ import annotations

import math
import sys
import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    HISTOGRAM_FACTOR,
    TIMER_WINDOW,
    Histogram,
    Timer,
)


@pytest.fixture
def enabled_registry():
    was_enabled = metrics.is_enabled()
    registry = metrics.MetricsRegistry()
    metrics.enable()
    with metrics.use_registry(registry):
        yield registry
    if not was_enabled:
        metrics.disable()


class TestHistogramBuckets:
    def test_observations_land_in_ascending_buckets(self):
        hist = Histogram("h")
        hist.observe(2e-6)
        hist.observe(1.0)
        hist.observe(1e9)  # beyond the ladder -> overflow bucket
        counts = hist.bucket_counts()
        assert sum(counts) == 3
        assert counts[-1] == 1  # the +Inf overflow
        assert hist.stats()["count"] == 3

    def test_cumulative_buckets_are_monotonic_and_end_at_total(self):
        hist = Histogram("h")
        for value in (1e-5, 1e-3, 0.1, 0.1, 7.0):
            hist.observe(value)
        cumulative = hist.cumulative_buckets()
        values = [count for _, count in cumulative]
        assert values == sorted(values)
        assert cumulative[-1][0] == math.inf
        assert cumulative[-1][1] == 5

    def test_quantile_relative_error_contract(self):
        # The documented accuracy contract: with factor sqrt(2) buckets
        # the geometric-midpoint estimate is within a factor of 2**0.25
        # (~19%) of the true value for any in-range observation.
        hist = Histogram("h")
        true_value = 0.0123
        for _ in range(100):
            hist.observe(true_value)
        estimate = hist.quantile(0.5)
        ratio = estimate / true_value
        bound = HISTOGRAM_FACTOR ** 0.5
        assert 1 / bound <= ratio <= bound

    def test_quantile_clamps_to_observed_extremes(self):
        hist = Histogram("h")
        hist.observe(0.5)
        assert hist.quantile(0.0) == 0.5
        assert hist.quantile(1.0) == 0.5

    def test_bounded_memory_regardless_of_observations(self):
        hist = Histogram("h")
        before = sys.getsizeof(hist._counts)
        for i in range(10_000):
            hist.observe(1e-6 * (i + 1))
        assert sys.getsizeof(hist._counts) == before
        assert len(hist._counts) == len(DEFAULT_BUCKET_BOUNDS) + 1

    def test_snapshot_trims_empty_head_and_saturated_tail(self):
        hist = Histogram("h")
        for _ in range(4):
            hist.observe(0.01)
        buckets = hist.snapshot()["buckets"]
        # One rising edge plus the trailing +Inf, not 57 pairs.
        assert len(buckets) <= 3
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == 4


class TestHistogramThreadSafety:
    def test_concurrent_observe_equals_serial_pass(self):
        # Many threads observing one histogram must land exactly the
        # counts of one serial pass over the same values -- bucket
        # counts are exact, never sampled or lost to a race.
        values = [1e-5 * (i % 97 + 1) for i in range(4000)]
        serial = Histogram("h")
        for value in values:
            serial.observe(value)

        shared = Histogram("h")

        def hammer(chunk):
            for value in chunk:
                shared.observe(value)

        threads = [
            threading.Thread(target=hammer, args=(values[k::8],))
            for k in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving inside observe()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert shared.bucket_counts() == serial.bucket_counts()
        assert shared.stats()["count"] == len(values)
        assert shared.stats()["total"] == pytest.approx(
            serial.stats()["total"])


class TestTimerWindow:
    def test_window_is_bounded(self):
        timer = Timer("t")
        for i in range(TIMER_WINDOW * 2):
            timer.observe(0.001 * (i + 1))
        assert len(timer._window) == TIMER_WINDOW
        assert timer.stats()["count"] == TIMER_WINDOW * 2

    def test_window_quantiles_are_exact_over_recent_samples(self):
        timer = Timer("t")
        # Old samples beyond the window must not influence quantiles.
        for _ in range(TIMER_WINDOW):
            timer.observe(100.0)
        for i in range(TIMER_WINDOW):
            timer.observe(0.001 * (i + 1))
        stats = timer.stats()
        # Exact nearest-rank over the last TIMER_WINDOW observations.
        assert stats["p50_s"] == pytest.approx(0.001 * (TIMER_WINDOW // 2),
                                               rel=0.01)
        assert stats["p50_s"] < 100.0


class TestRegistryHistograms:
    def test_snapshot_carries_histograms_section(self, enabled_registry):
        metrics.observe_histogram("batch.occupancy", 3.0)
        snapshot = enabled_registry.snapshot()
        assert snapshot["histograms"]["batch.occupancy"]["count"] == 1
