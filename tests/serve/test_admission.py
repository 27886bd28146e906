"""Per-client token buckets and start-up validation of the robustness knobs."""

from __future__ import annotations

import pytest

from repro.core.exceptions import AnalysisError
from repro.obs import metrics as _metrics
from repro.serve.admission import (
    AdmissionController,
    TokenBucket,
    client_key,
)
from repro.serve.config import ServeConfig


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestClientKey:
    def test_api_key_wins_over_peer_ip(self):
        key = client_key({"x-api-key": "alice"}, ("10.0.0.7", 5555))
        assert key == "key:alice"

    def test_peer_ip_fallback(self):
        assert client_key({}, ("10.0.0.7", 5555)) == "ip:10.0.0.7"

    def test_blank_api_key_is_ignored(self):
        assert client_key({"x-api-key": "  "}, ("10.0.0.7", 1)) == "ip:10.0.0.7"

    def test_missing_peername_degrades_to_shared_bucket(self):
        assert client_key({}, None) == "ip:unknown"


class TestTokenBucket:
    def test_burst_then_refusal_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        assert bucket.try_take(0.0) == (True, 0.0)
        assert bucket.try_take(0.0) == (True, 0.0)
        admitted, retry_after = bucket.try_take(0.0)
        assert not admitted
        assert retry_after == pytest.approx(0.5)  # one token at 2 rps
        admitted, _ = bucket.try_take(0.5)
        assert admitted

    def test_refill_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0, now=0.0)
        bucket.try_take(1000.0)
        assert bucket.tokens == pytest.approx(2.0)


class TestAdmissionController:
    def test_disabled_controller_admits_everything(self):
        controller = AdmissionController(rate_rps=None)
        assert not controller.enabled
        for _ in range(1000):
            assert controller.check("ip:1.2.3.4") is None

    def test_hot_client_throttles_only_itself(self):
        clock = _Clock()
        controller = AdmissionController(rate_rps=1.0, burst=2,
                                         clock=clock)
        assert controller.check("ip:hot") is None
        assert controller.check("ip:hot") is None
        retry_after = controller.check("ip:hot")
        assert retry_after is not None and retry_after > 0
        # An unrelated client is untouched by the hot one's deficit.
        assert controller.check("ip:cold") is None

    def test_retry_after_reflects_the_deficit(self):
        clock = _Clock()
        controller = AdmissionController(rate_rps=10.0, burst=1,
                                         clock=clock)
        assert controller.check("k") is None
        retry_after = controller.check("k")
        assert retry_after == pytest.approx(0.1)
        clock.advance(0.1)
        assert controller.check("k") is None

    def test_lru_bounds_tracked_clients(self):
        clock = _Clock()
        controller = AdmissionController(rate_rps=1.0, max_clients=2,
                                         clock=clock)
        for name in ("a", "b", "c"):
            controller.check(name)
        stats = controller.stats()
        assert stats["clients"] == 2
        # "a" was evicted; returning grants a fresh burst (fail-open).
        assert controller.check("a") is None

    def test_metrics_and_stats(self):
        clock = _Clock()
        registry = _metrics.MetricsRegistry()
        with _metrics.use_registry(registry):
            _metrics.enable()
            try:
                controller = AdmissionController(rate_rps=1.0, burst=1,
                                                 clock=clock)
                controller.check("k")
                controller.check("k")
            finally:
                _metrics.disable()
        counters = registry.snapshot()["counters"]
        assert counters["serve.admission.admitted"] == 1
        assert counters["serve.admission.rejected"] == 1
        assert controller.stats() == {
            "enabled": True, "admitted": 1, "rejected": 1, "clients": 1,
        }

    @pytest.mark.parametrize("kwargs", [
        {"rate_rps": 0}, {"rate_rps": -1},
        {"rate_rps": 1, "burst": 0},
        {"rate_rps": 1, "max_clients": 0},
    ])
    def test_bad_knobs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)


class TestConfigWireForm:
    @pytest.mark.parametrize("kwargs", [
        {"breaker_failures": -1},
        {"breaker_reset_s": 0},
        {"breaker_half_open_max": 0},
        {"rate_limit_rps": 0},
        {"rate_limit_burst": 0.5},
    ])
    def test_bad_robustness_knobs_fail_at_startup(self, kwargs):
        with pytest.raises(AnalysisError):
            ServeConfig(**kwargs)
