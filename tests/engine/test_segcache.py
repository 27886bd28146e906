"""The segment cache tier: memory LRU, disk store, prefill, wiring.

Covers the :mod:`repro.engine.segcache` mechanics (tier interplay,
counters, persistence, corruption tolerance) and the executor
integration: an installed segment cache routes eligible chain requests
through the exact ``transfer`` engine, traced requests keep the
stage-by-stage recursion, and a batch sweep's hits reach the counters.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.recursive import analyze_chain, resolve_chain
from repro.engine import executor
from repro.engine.request import AnalysisRequest
from repro.engine.segcache import (
    DiskSegmentStore,
    SegmentCache,
    configure_segment_cache,
    disable_segment_cache,
    get_segment_cache,
)
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


@pytest.fixture(autouse=True)
def _no_process_segcache():
    """Tests must not leak a process-wide segment cache into each other."""
    disable_segment_cache()
    yield
    disable_segment_cache()


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
        cache = SegmentCache(store=None)
        cold = cache.success_probability(TABLES, P_A, P_B, P_CIN)
        warm = cache.success_probability(TABLES, P_A, P_B, P_CIN)
        assert cold == warm == EXACT
        stats = cache.stats()["memory"]
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert stats["size"] == stats["misses"]  # every miss was stored

    def test_zero_capacity_disables_memoisation(self):
        cache = SegmentCache(store=None, memory_entries=0)
        assert cache.success_probability(TABLES, P_A, P_B, P_CIN) == EXACT
        stats = cache.stats()["memory"]
        assert stats["hits"] == 0 and stats["size"] == 0

    def test_lru_eviction_bounds_size(self):
        cache = SegmentCache(store=None, memory_entries=4)
        cache.success_probability(TABLES, P_A, P_B, P_CIN)
        assert cache.stats()["memory"]["size"] <= 4

    def test_counters_reach_obs_registry(self, metrics_registry):
        cache = SegmentCache(store=None)
        cache.success_probability(TABLES, P_A, P_B, P_CIN)
        counters = metrics_registry.snapshot()["counters"]
        assert counters["engine.cache.segment.misses"] > 0
        gauges = metrics_registry.snapshot()["gauges"]
        assert gauges["engine.cache.segment.size"] > 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SegmentCache(store=None, memory_entries=-1)
        with pytest.raises(ValueError):
            SegmentCache(store=None, min_disk_span=0)


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        first = SegmentCache(DiskSegmentStore(tmp_path))
        assert first.success_probability(TABLES, P_A, P_B, P_CIN) == EXACT
        assert first.stats()["disk"]["writes"] > 0

        second = SegmentCache(DiskSegmentStore(tmp_path))
        assert second.success_probability(TABLES, P_A, P_B, P_CIN) == EXACT
        disk = second.stats()["disk"]
        assert disk["hits"] > 0 and disk["writes"] == 0

    def test_min_disk_span_gates_writes(self, tmp_path):
        cache = SegmentCache(DiskSegmentStore(tmp_path), min_disk_span=128)
        cache.success_probability(TABLES, P_A, P_B, P_CIN)
        assert cache.stats()["disk"]["writes"] == 0  # widest span is 32

    def test_prefill_restores_memory_tier(self, tmp_path):
        SegmentCache(DiskSegmentStore(tmp_path)).success_probability(
            TABLES, P_A, P_B, P_CIN)
        warmed = SegmentCache(DiskSegmentStore(tmp_path))
        loaded = warmed.prefill()
        assert loaded > 0
        assert warmed.stats()["memory"]["size"] == loaded
        hits_from_prefill = warmed.stats()["disk"]["hits"]
        assert warmed.success_probability(TABLES, P_A, P_B, P_CIN) == EXACT
        # The prefilled nodes were re-indexed under their native memory
        # keys: the composed segments now hit memory, so evaluation adds
        # no disk reads beyond prefill's own.
        assert warmed.stats()["disk"]["hits"] == hits_from_prefill
        assert warmed.stats()["memory"]["hits"] > 0

    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = SegmentCache(DiskSegmentStore(tmp_path))
        cache.success_probability(TABLES, P_A, P_B, P_CIN)
        entries = sorted(Path(tmp_path).glob("*/*.json"))
        assert entries
        entries[0].write_text("{not json", encoding="utf-8")
        fresh = SegmentCache(DiskSegmentStore(tmp_path))
        assert fresh.success_probability(TABLES, P_A, P_B, P_CIN) == EXACT
        assert fresh.stats()["disk"]["corrupt"] >= 0  # tolerated either way

    def test_rejects_foreign_store_format(self, tmp_path):
        store = DiskSegmentStore(tmp_path)
        cache = SegmentCache(store)
        cache.success_probability(TABLES, P_A, P_B, P_CIN)
        entry = sorted(Path(tmp_path).glob("*/*.json"))[0]
        doc = json.loads(entry.read_text(encoding="utf-8"))
        doc["format"] = "something-else-v9"
        entry.write_text(json.dumps(doc), encoding="utf-8")
        key = entry.stem
        assert DiskSegmentStore(tmp_path).get(key) is None

    def test_list_keys_newest_first(self, tmp_path):
        store = DiskSegmentStore(tmp_path)
        SegmentCache(store).success_probability(TABLES, P_A, P_B, P_CIN)
        keys = store.list_keys(newest_first=True)
        assert keys and len(keys) == len(set(keys))
        assert set(keys) == set(store.list_keys())


class TestProcessWideConfig:
    def test_configure_and_disable(self, tmp_path):
        cache = configure_segment_cache(tmp_path, memory_entries=128)
        assert get_segment_cache() is cache
        disable_segment_cache()
        assert get_segment_cache() is None


class TestExecutorRouting:
    def test_run_prefers_transfer_when_installed(self, tmp_path):
        request = AnalysisRequest.chain("LPAA 2", WIDTH, 0.3, 0.7, P_CIN)
        assert executor.run(request=request).engine == "recursive"
        configure_segment_cache(tmp_path)
        routed = executor.run(request=request)
        assert routed.engine == "transfer"
        assert routed.exact
        assert routed.p_success == EXACT

    def test_forced_transfer_works_without_install(self):
        request = AnalysisRequest.chain("LPAA 2", WIDTH, 0.3, 0.7, P_CIN)
        result = executor.run(request=request, engine="transfer")
        assert result.engine == "transfer"
        assert result.p_success == EXACT

    def test_keep_trace_stays_on_recursion(self, tmp_path):
        configure_segment_cache(tmp_path)
        traced = executor.run(request=AnalysisRequest.chain(
            "LPAA 2", 8, 0.3, 0.7, P_CIN, keep_trace=True))
        assert traced.engine == "recursive"
        assert traced.trace  # per-stage Table 4 records intact

    def test_run_batch_groups_through_segment_tier(
        self, tmp_path, metrics_registry
    ):
        configure_segment_cache(tmp_path)
        requests = [AnalysisRequest.chain("LPAA 2", WIDTH, 0.3, 0.7, p)
                    for p in (0.1, 0.25, 0.5, 0.9)]
        results = executor.run_batch(requests)
        assert [r.engine for r in results] == ["transfer"] * 4
        assert results[1].p_success == EXACT
        counters = metrics_registry.snapshot()["counters"]
        assert counters["engine.batch.segment_points"] == 4

    def test_run_batch_falls_back_to_vectorized(self):
        requests = [AnalysisRequest.chain("LPAA 2", WIDTH, 0.3, 0.7, p)
                    for p in (0.1, 0.5)]
        results = executor.run_batch(requests)
        assert [r.engine for r in results] == ["vectorized"] * 2

    def test_transfer_registered_with_higher_base_cost(self):
        from repro.engine.registry import REGISTRY
        info = REGISTRY.get("transfer")
        recursive = REGISTRY.get("recursive")
        # Short chains stay on the recursion; long ones cross over.
        short = AnalysisRequest.chain("LPAA 1", 8)
        long = AnalysisRequest.chain("LPAA 1", 256)
        assert info.cost_estimate(short) > recursive.cost_estimate(short)
        assert info.cost_estimate(long) < recursive.cost_estimate(long)
        assert info.deterministic
        assert not info.supports_trace

    def test_sweep_hits_reach_the_counters(self, tmp_path, metrics_registry):
        configure_segment_cache(tmp_path)
        sweep = [AnalysisRequest.chain("LPAA 2", WIDTH, 0.3, 0.7, i / 31)
                 for i in range(32)]
        results = executor.run_batch(sweep)
        assert all(r is not None and r.engine == "transfer"
                   for r in results)
        stats = get_segment_cache().stats()["memory"]
        assert stats["hits"] > 0
        counters = metrics_registry.snapshot()["counters"]
        assert counters["engine.cache.segment.hits"] > 0
