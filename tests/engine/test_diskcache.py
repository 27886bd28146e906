"""Persistent result cache: keying, two tiers, corruption, concurrency."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro import engine
from repro.engine import diskcache
from repro.engine.diskcache import (
    STORE_FORMAT,
    DiskResultStore,
    ResultCache,
    cacheable_result,
    payload_from_result,
    request_key,
    result_from_payload,
)
from repro.engine.request import AnalysisRequest
from repro.obs import metrics as _metrics


@pytest.fixture(autouse=True)
def _no_process_cache():
    """Each test opts in explicitly; never leak the global cache."""
    engine.disable_result_cache()
    yield
    engine.disable_result_cache()


def _request(width=4, p_a=0.3, cell="LPAA 1", **kwargs):
    return AnalysisRequest.chain(cell, width, p_a=p_a, **kwargs)


def _payload(width=4, p_a=0.3):
    return payload_from_result(engine.run(_request(width, p_a)))


@pytest.fixture()
def metrics_registry():
    registry = _metrics.MetricsRegistry()
    _metrics.enable()
    try:
        with _metrics.use_registry(registry):
            yield registry
    finally:
        _metrics.disable()


def _entries_gauge(registry):
    return registry.snapshot()["gauges"]["engine.cache.disk.entries"]


class TestRequestKey:
    def test_stable_across_equivalent_requests(self):
        assert request_key(_request()) == request_key(_request())

    def test_quantisation_merges_float_noise(self):
        base = request_key(_request(p_a=0.3))
        jitter = request_key(_request(p_a=0.3 + 1e-15))
        assert base == jitter

    def test_distinct_questions_get_distinct_keys(self):
        keys = {
            request_key(_request(p_a=0.3)),
            request_key(_request(p_a=0.4)),
            request_key(_request(width=5)),
            request_key(_request(cell="LPAA 2")),
        }
        assert len(keys) == 4

    def test_uncacheable_shapes_have_no_key(self):
        assert request_key(_request(keep_trace=True)) is None
        gear_like = AnalysisRequest.chain("LPAA 1", 4, joints=((0.25,) * 4,) * 4)
        assert request_key(gear_like) is None

    def test_check_masking_is_part_of_the_identity(self):
        masked = request_key(_request(check_masking=True))
        unmasked = request_key(_request(check_masking=False))
        assert masked != unmasked


    @pytest.mark.parametrize("request_, key", [
        (AnalysisRequest.chain("LPAA 1", 8, 0.3, 0.7, 0.5),
         "7ff13d835d8ae7df8d47c3be805eec25ecd6655a3e5d7e2e00e5eaa174dce2cc"),
        (AnalysisRequest.chain(["LPAA 2", "accurate", "LPAA 7"], None,
                               [0.1, 1 / 3, 0.9], 0.25, 1 / 7),
         "711429048ba28fca0cef750eca4013b65aed17b134897bf92b2013d5cb25714c"),
        (AnalysisRequest.distribution("LPAA 3", 6, 0.2, kind="med"),
         "ff7ea21a4bb7acff892851687c549bfa1dbf7407c0666db26b9b7655a11b2076"),
        (AnalysisRequest.chain("LPAA 5", 4, 0.1 + 1e-14),
         "a717bdaba44b450933002d5b04dd9739acc0e46b09f0cfb17580f1228a36b18c"),
    ], ids=["uniform", "hybrid-third", "med", "sub-quantum"])
    def test_keys_are_pinned(self, request_, key):
        # Entries already on disk stay addressable: the key recipe and
        # its 12-digit probability quantum (``KEY_QUANT_DIGITS``) are
        # part of the store format.
        assert STORE_FORMAT == "sealpaa-diskcache-v1"
        assert request_key(request_) == key


class TestCacheability:
    def test_analytical_result_is_cacheable(self):
        assert cacheable_result(engine.run(_request()))

    def test_montecarlo_result_is_not(self):
        result = engine.run(_request(), engine="montecarlo",
                            samples=500, seed=1)
        assert not cacheable_result(result)

    def test_payload_roundtrip_is_bit_identical(self):
        result = engine.run(_request(width=6, p_a=0.37))
        restored = result_from_payload(
            json.loads(json.dumps(payload_from_result(result)))
        )
        assert restored.p_error == result.p_error
        assert restored.p_success == result.p_success
        assert restored.engine == result.engine
        assert restored.cell_names == result.cell_names

    def test_pmf_past_int64_roundtrips_as_exact_ints(self, tmp_path):
        # Only the top stage of a width-64 chain errs: deltas +-2^63.
        request = AnalysisRequest.distribution(
            ["accurate"] * 63 + ["LPAA 5"], None, kind="error_distribution")
        result = engine.run(request=request, engine="distribution-dp")
        assert result.distribution == ((-(1 << 63), 0.25), (0, 0.5),
                                       (1 << 63, 0.25))
        store = DiskResultStore(tmp_path)
        key = request_key(request)
        store.put(key, payload_from_result(result))
        restored = result_from_payload(DiskResultStore(tmp_path).get(key))
        assert restored.distribution == result.distribution
        assert restored.distribution.to_lists() == [
            [-(1 << 63), 0.25], [0, 0.5], [1 << 63, 0.25]]


class TestDiskResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = DiskResultStore(tmp_path)
        key = request_key(_request())
        assert store.get(key) is None
        store.put(key, _payload())
        assert store.get(key)["p_error"] == _payload()["p_error"]
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)

    def test_restart_survival_bit_identical(self, tmp_path):
        request = _request(width=8, p_a=0.42)
        key = request_key(request)
        result = engine.run(request)
        DiskResultStore(tmp_path).put(key, payload_from_result(result))
        # A brand-new store over the same directory = process restart.
        reborn = DiskResultStore(tmp_path)
        replayed = result_from_payload(reborn.get(key))
        assert replayed.p_error == result.p_error
        assert reborn.stats().hits == 1

    @pytest.mark.parametrize("damage", [
        "truncate", "garbage", "bad-json", "wrong-format", "wrong-key",
        "payload-missing-field", "payload-out-of-range", "payload-not-dict",
        "pmf-unsorted",
    ])
    def test_corrupt_entry_reads_as_miss_and_is_rewritten(
        self, tmp_path, damage
    ):
        store = DiskResultStore(tmp_path)
        key = request_key(_request())
        payload = _payload()
        store.put(key, payload)
        path = store.entry_path(key)
        doc = json.loads(path.read_text())
        if damage == "truncate":
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        elif damage == "garbage":
            path.write_bytes(b"\x00\xffnot json at all\x80")
        elif damage == "bad-json":
            path.write_text('{"format": ')
        elif damage == "wrong-format":
            doc["format"] = "sealpaa-diskcache-v999"
            path.write_text(json.dumps(doc))
        elif damage == "wrong-key":
            doc["key"] = "0" * 64
            path.write_text(json.dumps(doc))
        elif damage == "payload-missing-field":
            del doc["payload"]["p_error"]
            path.write_text(json.dumps(doc))
        elif damage == "payload-out-of-range":
            doc["payload"]["p_error"] = 3.5
            path.write_text(json.dumps(doc))
        elif damage == "payload-not-dict":
            doc["payload"] = [1, 2, 3]
            path.write_text(json.dumps(doc))
        elif damage == "pmf-unsorted":
            doc["payload"]["distribution"] = [[1, 0.5], [0, 0.5]]
            path.write_text(json.dumps(doc))

        assert store.get(key) is None, damage
        stats = store.stats()
        assert stats.corrupt == 1
        assert not path.exists(), "corrupt entry must be deleted"
        # The slot is rewritable and healthy again afterwards.
        store.put(key, payload)
        assert store.get(key) == payload

    def test_unreadable_entry_is_a_plain_miss_not_corrupt(self, tmp_path):
        store = DiskResultStore(tmp_path)
        assert store.get("ab" + "0" * 62) is None
        stats = store.stats()
        assert stats.misses == 1 and stats.corrupt == 0

    def test_prune_evicts_oldest_beyond_limit(self, tmp_path):
        store = DiskResultStore(tmp_path, max_entries=3)
        payload = _payload()
        keys = []
        for width in range(2, 8):
            key = request_key(_request(width=width))
            keys.append(key)
            store.put(key, payload)
            mtime = 1_000_000_000 + width
            os.utime(store.entry_path(key), (mtime, mtime))
        assert store.prune() == 3
        assert store.entry_count() == 3
        # The newest three survive.
        assert all(store.entry_path(k).exists() for k in keys[3:])
        assert store.stats().evictions == 3

    def test_clear_removes_all_entries(self, tmp_path):
        store = DiskResultStore(tmp_path)
        store.put(request_key(_request()), _payload())
        store.clear()
        assert store.entry_count() == 0


class TestO1Writes:
    def test_put_never_lists_the_store(self, tmp_path, metrics_registry,
                                       monkeypatch):
        store = DiskResultStore(tmp_path)
        payload = _payload()
        store.put(request_key(_request(width=2)), payload)  # counting scan

        def listing(*args, **kwargs):
            raise AssertionError("put listed the store")

        monkeypatch.setattr(DiskResultStore, "entry_count", listing)
        monkeypatch.setattr(type(tmp_path), "glob", listing)
        for width in range(3, 9):
            store.put(request_key(_request(width=width)), payload)
        store.put(request_key(_request(width=3)), payload)  # overwrite
        assert store.stats().writes == 8

    def test_entries_gauge_tracks_the_disk(self, tmp_path, metrics_registry):
        store = DiskResultStore(tmp_path, max_entries=3)
        payload = _payload()
        keys = [request_key(_request(width=w)) for w in range(2, 8)]
        for i, key in enumerate(keys):
            store.put(key, payload)
            mtime = 1_000_000_000 + i
            os.utime(store.entry_path(key), (mtime, mtime))
            assert _entries_gauge(metrics_registry) == store.entry_count()
        assert _entries_gauge(metrics_registry) == 6
        store.put(keys[0], payload)  # overwrite: no new file
        assert _entries_gauge(metrics_registry) == store.entry_count() == 6
        assert store.prune() == 3
        assert _entries_gauge(metrics_registry) == store.entry_count() == 3
        store.clear()
        assert _entries_gauge(metrics_registry) == store.entry_count() == 0

    def test_first_write_counts_entries_already_on_disk(
        self, tmp_path, metrics_registry
    ):
        payload = _payload()
        DiskResultStore(tmp_path).put(request_key(_request()), payload)
        remounted = DiskResultStore(tmp_path)
        remounted.put(request_key(_request(width=5)), payload)
        assert _entries_gauge(metrics_registry) == 2

    def test_put_remakes_a_removed_fanout_directory(self, tmp_path):
        store = DiskResultStore(tmp_path)
        key = request_key(_request())
        store.put(key, _payload())
        path = store.entry_path(key)
        path.unlink()
        path.parent.rmdir()
        store.put(key, _payload())
        assert store.get(key) == _payload()

    def test_request_key_runs_once_per_request_per_run_batch(
        self, tmp_path, monkeypatch
    ):
        calls = []

        def counting(request):
            calls.append(request)
            return request_key(request)

        monkeypatch.setattr(diskcache, "request_key", counting)
        engine.configure_result_cache(tmp_path)
        requests = [_request(width=w) for w in (3, 4, 5)]
        requests.append(_request(width=4, keep_trace=True))
        # Misses: each request's lookup and write-back share one key;
        # the uncacheable (traced) request is keyed once, to None.
        engine.run_batch(requests)
        assert sorted(map(id, calls)) == sorted(map(id, requests))
        calls.clear()
        fresh = [_request(width=w) for w in (3, 4, 5)]
        engine.run_batch(fresh)  # hits: one lookup each
        assert sorted(map(id, calls)) == sorted(map(id, fresh))

    def test_request_key_runs_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counting(request):
            calls.append(request)
            return request_key(request)

        monkeypatch.setattr(diskcache, "request_key", counting)
        engine.configure_result_cache(tmp_path)
        request = _request(width=6)
        engine.run(request)  # a miss: lookup + write-back
        assert calls == [request]
        assert engine.get_result_cache().stats()["disk"]["writes"] == 1


class TestResultCacheTiers:
    def test_memory_tier_promotes_disk_hits(self, tmp_path):
        request = _request()
        result = engine.run(request)
        writer = ResultCache(DiskResultStore(tmp_path))
        assert writer.put_result(request, result)
        # Fresh cache over the same store: first read comes from disk,
        # the second from the promoted in-memory entry.
        reader = ResultCache(DiskResultStore(tmp_path))
        assert reader.get_result(request).p_error == result.p_error
        assert reader.get_result(request).p_error == result.p_error
        stats = reader.stats()
        assert stats["disk"]["hits"] == 1
        assert stats["memory"]["hits"] == 1

    def test_memory_lru_evicts_oldest(self):
        cache = ResultCache(store=None, memory_entries=2)
        requests = [_request(width=w) for w in (2, 3, 4)]
        for request in requests:
            cache.put_result(request, engine.run(request))
        assert cache.get_result(requests[0]) is None  # evicted
        assert cache.get_result(requests[2]) is not None

    def test_noncacheable_results_are_refused(self):
        cache = ResultCache(store=None)
        request = _request()
        mc = engine.run(request, engine="montecarlo", samples=500, seed=1)
        assert not cache.put_result(request, mc)
        assert cache.get_result(request) is None


class TestExecutorIntegration:
    def test_run_replays_from_disk_across_restart(self, tmp_path):
        request = _request(width=10, p_a=0.21)
        engine.configure_result_cache(tmp_path)
        first = engine.run(request)
        # Simulate a restart: new process-wide cache, same directory.
        engine.configure_result_cache(tmp_path)
        replayed = engine.run(request)
        assert replayed.p_error == first.p_error
        assert engine.get_result_cache().stats()["disk"]["hits"] == 1

    def test_run_batch_mixes_cached_and_fresh(self, tmp_path):
        requests = [_request(width=w, p_a=0.3) for w in (3, 4, 5, 6)]
        engine.configure_result_cache(tmp_path)
        baseline = engine.run_batch(requests[:2])
        engine.configure_result_cache(tmp_path)  # drop the memory tier
        mixed = engine.run_batch(requests)
        assert [r.p_error for r in mixed[:2]] == [r.p_error for r in baseline]
        disk = engine.get_result_cache().stats()["disk"]
        # The two replayed answers hit; only the two fresh ones write.
        assert disk["hits"] == 2 and disk["writes"] == 2

    def test_forced_engine_and_simulation_bypass_the_cache(self, tmp_path):
        engine.configure_result_cache(tmp_path)
        request = _request()
        engine.run(request, engine="recursive")
        engine.run(request, engine="montecarlo", samples=500, seed=1)
        stats = engine.get_result_cache().stats()
        assert stats["disk"]["writes"] == 0

    @pytest.mark.parametrize("kind", ["med", "wce"])
    @pytest.mark.parametrize("cell", [f"LPAA {i}" for i in range(1, 8)])
    def test_disk_replay_serialises_to_the_fresh_bytes(
        self, tmp_path, cell, kind
    ):
        from repro.serve.service import result_to_doc

        request = AnalysisRequest.distribution(cell, 8, kind=kind)
        engine.configure_result_cache(tmp_path)
        fresh = engine.run(request)
        engine.configure_result_cache(tmp_path)  # drop the memory tier
        replayed = engine.run(request)
        assert engine.get_result_cache().stats()["disk"]["hits"] == 1
        for encode in (payload_from_result, result_to_doc):
            assert json.dumps(encode(replayed)) == json.dumps(encode(fresh))
        assert type(replayed.wce) is type(fresh.wce)

    def test_decode_keeps_json_integers_and_floats_apart(self):
        payload = dict(_payload(), kind="wce", wce=255, med=3, mse=2.0)
        replayed = result_from_payload(payload)
        assert (replayed.wce, replayed.med, replayed.mse) == (255, 3, 2.0)
        assert [type(v) for v in (replayed.wce, replayed.med,
                                  replayed.mse)] == [int, int, float]


# -- concurrent multi-process writers ----------------------------------------

_N_KEYS = 8


def _hammer_store(root: str, worker: int) -> int:
    """One writer process: repeatedly rewrite a shared key set."""
    from repro.engine.diskcache import DiskResultStore

    store = DiskResultStore(root)
    payload = {
        "p_error": 0.25, "p_success": 0.75, "engine": "recursive",
        "exact": True, "width": 4, "kind": "chain",
        "cell_names": ["LPAA 1"] * 4, "is_upper_bound": False,
        "worker": worker,
    }
    wrote = 0
    for round_no in range(20):
        for i in range(_N_KEYS):
            key = ("%02x" % i) + ("%02x" % worker) * 31
            store.put(key, dict(payload, round=round_no))
            wrote += 1
            store.get(("%02x" % i) + ("%02x" % ((worker + 1) % 4)) * 31)
    return wrote


class TestConcurrentWriters:
    def test_parallel_writers_never_corrupt_the_store(self, tmp_path):
        workers = 4
        with multiprocessing.Pool(workers) as pool:
            wrote = pool.starmap(
                _hammer_store, [(str(tmp_path), w) for w in range(workers)]
            )
        assert sum(wrote) == workers * 20 * _N_KEYS
        # Every surviving entry parses and validates; nothing is torn.
        store = DiskResultStore(tmp_path)
        seen = 0
        for path in sorted(tmp_path.glob("??/*.json")):
            key = path.stem
            payload = store.get(key)
            assert payload is not None, f"torn entry at {path}"
            assert payload["p_error"] == 0.25
            seen += 1
        assert seen == store.entry_count() == workers * _N_KEYS
        assert store.stats().corrupt == 0
