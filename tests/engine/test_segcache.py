"""The segment cache: a memory LRU of exact segment matrices.

Covers the :class:`repro.engine.segcache.SegmentCache` mechanics (LRU
bounds, counters, warm == cold) and the executor's chain routing: no
un-forced chain question reaches the exact ``transfer`` engine, which
stays reachable when forced.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.recursive import analyze_chain, resolve_chain
from repro.engine import executor
from repro.engine.request import AnalysisRequest
from repro.engine.segcache import SegmentCache
from repro.obs import metrics as _metrics

WIDTH = 32
TABLES = resolve_chain("LPAA 2", WIDTH)
P_A = [0.3] * WIDTH
P_B = [0.7] * WIDTH
P_CIN = 0.25
EXACT = float(analyze_chain(
    "LPAA 2", WIDTH,
    [Fraction(p) for p in P_A], [Fraction(p) for p in P_B],
    Fraction(P_CIN),
).p_success)


@pytest.fixture()
def metrics_registry():
    registry = _metrics.MetricsRegistry()
    _metrics.enable()
    try:
        with _metrics.use_registry(registry):
            yield registry
    finally:
        _metrics.disable()


class TestMemoryTier:
    def test_cold_then_warm_bit_identical(self):
        cache = SegmentCache()
        cold = cache.success_probability(TABLES, P_A, P_B, P_CIN)
        warm = cache.success_probability(TABLES, P_A, P_B, P_CIN)
        assert cold == warm == EXACT
        stats = cache.stats()["memory"]
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert stats["size"] == stats["misses"]  # every miss was stored

    def test_zero_capacity_disables_memoisation(self):
        cache = SegmentCache(memory_entries=0)
        assert cache.success_probability(TABLES, P_A, P_B, P_CIN) == EXACT
        stats = cache.stats()["memory"]
        assert stats["hits"] == 0 and stats["size"] == 0

    def test_lru_eviction_bounds_size(self):
        cache = SegmentCache(memory_entries=4)
        cache.success_probability(TABLES, P_A, P_B, P_CIN)
        assert cache.stats()["memory"]["size"] <= 4

    def test_counters_reach_obs_registry(self, metrics_registry):
        cache = SegmentCache()
        cache.success_probability(TABLES, P_A, P_B, P_CIN)
        counters = metrics_registry.snapshot()["counters"]
        assert counters["engine.cache.segment.misses"] > 0
        gauges = metrics_registry.snapshot()["gauges"]
        assert gauges["engine.cache.segment.size"] > 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SegmentCache(memory_entries=-1)


class TestExecutorRouting:
    def test_unforced_chains_never_reach_transfer(self):
        for width in (4, 8, 64, 128, 256, 1024):
            request = AnalysisRequest.chain("LPAA 2", width, 0.3, 0.7, P_CIN)
            exact = executor.run(request=request, engine="transfer")
            single = executor.run(request=request)
            (batched,) = executor.run_batch([request])
            assert (single.engine, batched.engine) \
                == ("recursive", "vectorized")
            for result in (single, batched):
                assert result.p_success == pytest.approx(
                    exact.p_success, rel=1e-12, abs=0.0)

    def test_forced_transfer_works_without_install(self):
        request = AnalysisRequest.chain("LPAA 2", WIDTH, 0.3, 0.7, P_CIN)
        result = executor.run(request=request, engine="transfer")
        assert result.engine == "transfer"
        assert result.p_success == EXACT

    def test_keep_trace_stays_on_recursion(self):
        traced = executor.run(request=AnalysisRequest.chain(
            "LPAA 2", 8, 0.3, 0.7, P_CIN, keep_trace=True))
        assert traced.engine == "recursive"
        assert traced.trace  # per-stage Table 4 records intact

    def test_run_batch_falls_back_to_vectorized(self):
        requests = [AnalysisRequest.chain("LPAA 2", WIDTH, 0.3, 0.7, p)
                    for p in (0.1, 0.5)]
        results = executor.run_batch(requests)
        assert [r.engine for r in results] == ["vectorized"] * 2

    def test_transfer_registered_with_higher_base_cost(self):
        from repro.engine.registry import REGISTRY
        info = REGISTRY.get("transfer")
        recursive = REGISTRY.get("recursive")
        # Big-int composition costs more than the float recursion at
        # every width, so the router never picks it.
        for width in (1, 8, 128, 256, 4096):
            request = AnalysisRequest.chain("LPAA 1", width)
            assert info.cost_estimate(request) \
                > recursive.cost_estimate(request)
        assert info.deterministic
        assert not info.supports_trace
