"""Stage-matrix cache: keying, LRU eviction, quantisation, stats."""

from __future__ import annotations

import pytest

from repro.core.adders import PAPER_LPAAS
from repro.core.truth_table import ACCURATE
from repro.engine.cache import (
    GLOBAL_CACHE,
    StageMatrixCache,
    StageTransition,
    analysis_matrices,
    cache_stats,
    clear_cache,
    stage_transition,
)


@pytest.fixture(autouse=True)
def _fresh_global_cache():
    clear_cache()
    yield
    clear_cache()


class TestStageTransition:
    def test_matches_direct_recursion(self):
        # Accurate cell at p=0.5: carry-out of a successful stage is
        # correct by construction, and success from (0.5, 0.5) is 1.
        t = stage_transition(ACCURATE, 0.5, 0.5)
        assert isinstance(t, StageTransition)
        assert t.success(0.5, 0.5) == pytest.approx(1.0)

    def test_apply_conserves_mass_for_accurate(self):
        t = stage_transition(ACCURATE, 0.3, 0.8)
        c0, c1 = t.apply(1.0, 0.0)
        assert 0.0 <= c0 <= 1.0 and 0.0 <= c1 <= 1.0
        assert c0 + c1 == pytest.approx(1.0)  # exact cell never fails

    def test_matrix_and_final_views(self):
        t = stage_transition(PAPER_LPAAS[0], 0.25, 0.75)
        (t00, t01), (t10, t11) = t.matrix
        assert (t00, t01, t10, t11) == (t.t00, t.t01, t.t10, t.t11)
        assert t.final == (t.l0, t.l1)


class TestCaching:
    def test_hit_on_identical_query(self):
        stage_transition(PAPER_LPAAS[0], 0.5, 0.5)
        before = cache_stats()
        stage_transition(PAPER_LPAAS[0], 0.5, 0.5)
        after = cache_stats()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_quantisation_merges_sub_tolerance_probabilities(self):
        # Differences below the 1e-12 quantum map to one cache entry.
        stage_transition(PAPER_LPAAS[1], 0.5, 0.5)
        before = cache_stats()
        stage_transition(PAPER_LPAAS[1], 0.5 + 1e-14, 0.5)
        assert cache_stats().hits == before.hits + 1

    def test_same_rows_share_entries_across_table_objects(self):
        # The key is the truth-table fingerprint, not object identity.
        clone = type(ACCURATE)(ACCURATE.rows, name="clone-of-accurate")
        stage_transition(ACCURATE, 0.5, 0.5)
        before = cache_stats()
        stage_transition(clone, 0.5, 0.5)
        assert cache_stats().hits == before.hits + 1

    def test_distinct_probabilities_miss(self):
        stage_transition(PAPER_LPAAS[2], 0.1, 0.9)
        before = cache_stats()
        stage_transition(PAPER_LPAAS[2], 0.2, 0.9)
        after = cache_stats()
        assert after.misses == before.misses + 1


class TestLRUBehaviour:
    def test_eviction_at_capacity(self):
        cache = StageMatrixCache(capacity=2)
        cache.stage_transition(ACCURATE, 0.1, 0.1)
        cache.stage_transition(ACCURATE, 0.2, 0.2)
        cache.stage_transition(ACCURATE, 0.3, 0.3)  # evicts (0.1, 0.1)
        assert cache.stats().size == 2
        before = cache.stats()
        cache.stage_transition(ACCURATE, 0.1, 0.1)  # re-computed
        assert cache.stats().misses == before.misses + 1

    def test_recent_use_protects_from_eviction(self):
        cache = StageMatrixCache(capacity=2)
        cache.stage_transition(ACCURATE, 0.1, 0.1)
        cache.stage_transition(ACCURATE, 0.2, 0.2)
        cache.stage_transition(ACCURATE, 0.1, 0.1)  # touch: now MRU
        cache.stage_transition(ACCURATE, 0.3, 0.3)  # evicts (0.2, 0.2)
        before = cache.stats()
        cache.stage_transition(ACCURATE, 0.1, 0.1)
        assert cache.stats().hits == before.hits + 1

    def test_capacity_zero_disables_memoisation(self):
        cache = StageMatrixCache(capacity=0)
        a = cache.stage_transition(ACCURATE, 0.5, 0.5)
        b = cache.stage_transition(ACCURATE, 0.5, 0.5)
        assert a.success(0.5, 0.5) == b.success(0.5, 0.5)
        assert cache.stats().hits == 0
        assert cache.stats().size == 0

    def test_clear_resets_entries_and_stats(self):
        cache = StageMatrixCache(capacity=8)
        cache.stage_transition(ACCURATE, 0.5, 0.5)
        cache.stage_transition(ACCURATE, 0.5, 0.5)
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)

    def test_configure_shrinks_existing_population(self):
        cache = StageMatrixCache(capacity=8)
        for k in range(6):
            cache.stage_transition(ACCURATE, k / 10.0, 0.5)
        cache.configure(capacity=3)
        assert cache.stats().size <= 3

    def test_hit_rate(self):
        cache = StageMatrixCache(capacity=8)
        assert cache.stats().hit_rate == 0.0
        cache.stage_transition(ACCURATE, 0.5, 0.5)
        cache.stage_transition(ACCURATE, 0.5, 0.5)
        cache.stage_transition(ACCURATE, 0.5, 0.5)
        assert cache.stats().hit_rate == pytest.approx(2.0 / 3.0)


class TestDerivedArtifacts:
    def test_analysis_matrices_memoised_per_table(self):
        first = analysis_matrices(PAPER_LPAAS[3])
        second = analysis_matrices(PAPER_LPAAS[3])
        assert first is second

    def test_global_cache_is_module_singleton(self):
        stage_transition(ACCURATE, 0.5, 0.5)
        assert GLOBAL_CACHE.stats().misses >= 1


class TestStatMerging:
    """Hit/miss totals stay whole when lookups race."""

    def test_counters_consistent_under_concurrent_lookups(self):
        # Regression: hit/miss read-modify-writes must happen under the
        # LRU lock, or concurrent lookups (threaded callers, the serve
        # executor threads) lose increments.
        import threading

        cache = StageMatrixCache(capacity=64)
        points = [(i / 40.0, 0.5) for i in range(20)]
        workers = 8
        rounds = 30
        barrier = threading.Barrier(workers)

        def hammer():
            barrier.wait()
            for _ in range(rounds):
                for p_a, p_b in points:
                    cache.stage_transition(ACCURATE, p_a, p_b)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        lookups = workers * rounds * len(points)
        assert stats.hits + stats.misses == lookups
        assert stats.misses >= len(points)
