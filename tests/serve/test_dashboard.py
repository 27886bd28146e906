"""Dashboard rendering: pure-text frames, live polls, the CLI path."""

from __future__ import annotations

import pytest

from repro import engine
from repro.obs import metrics as _metrics
from repro.serve import AnalysisServer, ServeConfig
from repro.serve.dashboard import poll, render_lines, render_once


@pytest.fixture(autouse=True)
def _clean_process_state():
    engine.disable_result_cache()
    _metrics.GLOBAL_REGISTRY.reset()
    yield
    engine.disable_result_cache()
    _metrics.GLOBAL_REGISTRY.reset()


def _sample(ts=100.0, served=10, **service):
    doc = {"served": served, "batches": 4, "mean_batch_size": 2.5,
           "queue_depth": 0, "shed": 0, "recent_shed_rate": 0.0,
           "draining": False}
    doc.update(service)
    return {
        "ts": ts,
        "metrics": {
            "service": doc,
            "gauges": {},
            "timers": {"serve.http.analyze.seconds": {
                "count": served, "p50_s": 0.01, "p95_s": 0.02,
                "p99_s": 0.03}},
            "histograms": {},
        },
        "health": {"status": "ok", "slo": {"status": "ok", "checks": [
            {"name": "latency_p50", "status": "pass",
             "observed": 0.01, "threshold": 1.0},
            {"name": "shed_rate", "status": "disabled"},
        ]}},
    }


class TestRenderLines:
    def test_unreachable_state_renders_without_crashing(self):
        lines = render_lines({"ts": 0.0, "error": "connection refused"},
                             base_url="http://127.0.0.1:1")
        text = "\n".join(lines)
        assert "UNREACHABLE" in text
        assert "connection refused" in text

    def test_full_sample_renders_headline_signals(self):
        text = "\n".join(render_lines(_sample()))
        assert "health: ok" in text
        assert "served: 10" in text
        assert "serve.http.analyze.seconds" in text
        assert "p99=" in text
        assert "latency_p50" in text
        assert "[PASS]" in text
        assert "(disabled)" in text

    def test_throughput_needs_two_samples(self):
        first = _sample(ts=100.0, served=10)
        second = _sample(ts=102.0, served=30)
        solo = "\n".join(render_lines(second))
        assert "-- req/s" in solo
        paired = "\n".join(render_lines(second, previous=first))
        assert "10.0 req/s" in paired  # (30-10)/2s

    def test_draining_flag_is_surfaced(self):
        text = "\n".join(render_lines(_sample(draining=True)))
        assert "DRAINING" in text

    def test_result_cache_tiers_render_hit_rates(self):
        sample = _sample(result_cache={
            "memory": {"hits": 8, "misses": 2},
            "disk": {"hits": 0, "misses": 0},
        })
        text = "\n".join(render_lines(sample))
        assert "memory" in text and "80.0%" in text


class TestLivePolling:
    def test_poll_and_render_once_against_a_live_server(self):
        server = AnalysisServer(ServeConfig(port=0, batch_window_s=0.002))
        url = server.start()
        try:
            sample = poll(url)
            assert "error" not in sample
            assert sample["metrics"]["format"] == "sealpaa-metrics-v1"
            assert sample["health"]["status"] == "ok"
            text = render_once(url)
        finally:
            server.stop()
        assert "health: ok" in text

    def test_poll_survives_a_dead_server(self):
        sample = poll("http://127.0.0.1:9")  # discard port: refused
        assert "error" in sample

    def test_cli_once_flag_prints_a_frame(self, capsys):
        from repro.cli import main

        server = AnalysisServer(ServeConfig(port=0, batch_window_s=0.002))
        url = server.start()
        try:
            assert main(["dashboard", url, "--once"]) == 0
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert "sealpaa dashboard" in out
        assert "health: ok" in out
