"""Rolling-ratio windows and SLO evaluation for /healthz."""

from __future__ import annotations

import pytest

from repro.obs import metrics
from repro.obs.slo import RollingRatio, SloPolicy, evaluate_slo


def _snapshot(latency_s=None, count=0):
    registry = metrics.MetricsRegistry()
    metrics.enable()
    try:
        with metrics.use_registry(registry):
            for _ in range(count):
                metrics.observe("serve.http.analyze.seconds", latency_s)
            return registry.snapshot()
    finally:
        metrics.disable()


class TestRollingRatio:
    def test_empty_window_has_no_rate(self):
        assert RollingRatio().rate() is None

    def test_rate_over_recorded_outcomes(self):
        ratio = RollingRatio()
        for outcome in (True, False, False, False):
            ratio.record(outcome)
        assert ratio.rate() == pytest.approx(0.25)

    def test_window_evicts_oldest_outcomes(self):
        ratio = RollingRatio(window=4)
        for _ in range(4):
            ratio.record(True)
        for _ in range(4):
            ratio.record(False)
        assert ratio.rate() == 0.0
        assert ratio.count == 4

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="window"):
            RollingRatio(window=0)


class TestSloPolicy:
    def test_defaults_are_generous_but_set(self):
        policy = SloPolicy()
        assert policy.max_p50_s == 1.0
        assert policy.max_p99_s == 5.0
        assert policy.max_shed_rate == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="max_p50_s"):
            SloPolicy(max_p50_s=0.0)
        with pytest.raises(ValueError, match="max_shed_rate"):
            SloPolicy(max_shed_rate=1.5)


class TestEvaluateSlo:
    def test_fresh_server_is_ok_not_failing(self):
        verdict = evaluate_slo(_snapshot(), SloPolicy())
        assert verdict["status"] == "ok"
        by_name = {c["name"]: c for c in verdict["checks"]}
        assert by_name["latency_p50"]["status"] == "no_data"
        assert by_name["shed_rate"]["status"] == "no_data"

    def test_disabled_threshold_is_reported_not_evaluated(self):
        verdict = evaluate_slo(_snapshot(), SloPolicy(max_shed_rate=None),
                               shed_rate=0.9)
        by_name = {c["name"]: c for c in verdict["checks"]}
        assert by_name["shed_rate"]["status"] == "disabled"
        assert verdict["status"] == "ok"

    def test_fast_service_passes(self):
        snapshot = _snapshot(latency_s=0.01, count=50)
        verdict = evaluate_slo(snapshot, SloPolicy(), shed_rate=0.0)
        assert verdict["status"] == "ok"
        assert all(c["status"] == "pass" for c in verdict["checks"])

    def test_slow_p50_degrades(self):
        snapshot = _snapshot(latency_s=2.0, count=50)
        verdict = evaluate_slo(snapshot, SloPolicy())
        assert verdict["status"] == "degraded"
        by_name = {c["name"]: c for c in verdict["checks"]}
        assert by_name["latency_p50"]["status"] == "fail"
        assert by_name["latency_p50"]["observed"] == pytest.approx(2.0)

    def test_shed_rate_is_an_upper_bound(self):
        verdict = evaluate_slo(_snapshot(), SloPolicy(), shed_rate=0.9)
        by_name = {c["name"]: c for c in verdict["checks"]}
        assert by_name["shed_rate"]["status"] == "fail"
        assert verdict["status"] == "degraded"

    def test_latency_uses_the_rolling_window_not_whole_run(self):
        # A long-ago slow spell outside the window must not fail the
        # check: the window covers the last TIMER_WINDOW observations.
        registry = metrics.MetricsRegistry()
        metrics.enable()
        try:
            with metrics.use_registry(registry):
                for _ in range(metrics.TIMER_WINDOW):
                    metrics.observe("serve.http.analyze.seconds", 30.0)
                for _ in range(metrics.TIMER_WINDOW):
                    metrics.observe("serve.http.analyze.seconds", 0.01)
                snapshot = registry.snapshot()
        finally:
            metrics.disable()
        verdict = evaluate_slo(snapshot, SloPolicy())
        by_name = {c["name"]: c for c in verdict["checks"]}
        assert by_name["latency_p50"]["status"] == "pass"
        assert by_name["latency_p99"]["status"] == "pass"
