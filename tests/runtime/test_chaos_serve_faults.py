"""Serve-facing chaos faults: the engine and cache hooks."""

import pytest

from repro.runtime import ChaosShim, install_chaos
from repro.runtime.chaos import cache_read_check, engine_call_check

pytestmark = pytest.mark.chaos


class TestEngineFaults:
    def test_hooks_are_noops_with_no_shim_installed(self):
        engine_call_check("idle")
        cache_read_check("/nowhere")

    def test_burst_fails_the_first_n_dispatches(self):
        shim = ChaosShim(fail_engine_times=2)
        with install_chaos(shim):
            for _ in range(2):
                with pytest.raises(RuntimeError, match="injected engine"):
                    engine_call_check("batch")
            engine_call_check("batch")  # burst exhausted
        assert shim.engine_faults_injected == 2
        assert shim.engine_calls_seen == 3

    def test_periodic_fails_every_nth_dispatch(self):
        shim = ChaosShim(engine_fail_every=3)
        with install_chaos(shim):
            outcomes = []
            for _ in range(9):
                try:
                    engine_call_check("batch")
                    outcomes.append("ok")
                except RuntimeError:
                    outcomes.append("fail")
        assert outcomes == ["ok", "ok", "fail"] * 3
        assert shim.engine_faults_injected == 3

    def test_delay_sleeps_before_dispatch(self):
        import time

        shim = ChaosShim(engine_delay_s=0.02)
        with install_chaos(shim):
            start = time.monotonic()
            engine_call_check("batch")
            assert time.monotonic() - start >= 0.02


class TestCacheFaults:
    def test_every_nth_read_raises_oserror(self):
        shim = ChaosShim(cache_read_fail_every=2)
        with install_chaos(shim):
            cache_read_check("a.json")
            with pytest.raises(OSError, match="injected cache read"):
                cache_read_check("b.json")
            cache_read_check("c.json")
        assert shim.cache_faults_injected == 1
        assert shim.cache_reads_seen == 3
