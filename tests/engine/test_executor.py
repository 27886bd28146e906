"""Unified executor: selection, explicit engines, batching, budgets."""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core import vectorized
from repro.core.exceptions import AnalysisError
from repro.core.recursive import resolve_cell
from repro.engine import AnalysisRequest, run, run_batch, select_engine
from repro.engine import backends
from repro.engine.diskcache import (
    configure_result_cache,
    disable_result_cache,
    get_result_cache,
)
from repro.engine.executor import BATCH_CHUNK, error_curves
from repro.runtime import RunBudget


class TestRun:
    def test_positional_convenience_matches_request_form(self):
        direct = run("LPAA 1", 4, 0.3, 0.7, 0.5)
        request = AnalysisRequest.chain("LPAA 1", 4, 0.3, 0.7, 0.5)
        assert run(request).p_error == pytest.approx(direct.p_error)

    def test_default_chain_selection_is_recursive(self):
        result = run("LPAA 1", 8)
        assert result.engine == "recursive"
        assert result.exact

    def test_explicit_engine_override(self):
        result = run("LPAA 1", 4, engine="vectorized")
        assert result.engine == "vectorized"

    def test_engines_agree(self):
        reference = run("LPAA 2", 6).p_error
        for name in ("vectorized", "exhaustive"):
            assert run("LPAA 2", 6, engine=name).p_error == pytest.approx(
                reference, abs=1e-12
            ), name

    def test_incapable_engine_rejected(self):
        with pytest.raises(AnalysisError, match="cannot serve"):
            run("LPAA 1", 40, engine="exhaustive")

    def test_keep_trace_returns_stage_records(self):
        result = run("LPAA 1", 4, keep_trace=True)
        assert result.trace is not None and len(result.trace) == 4

    def test_correlated_selection_from_joints(self):
        from repro.core.correlated import JointBitDistribution

        joints = [JointBitDistribution.identical(0.5) for _ in range(4)]
        result = run("LPAA 1", 4, joints=joints)
        assert result.engine == "correlated"


class TestSimulateRouting:
    def test_small_width_runs_exhaustive(self):
        result = run("LPAA 1", 4, simulate=True)
        assert result.engine == "exhaustive"
        assert result.p_error == pytest.approx(run("LPAA 1", 4).p_error,
                                               abs=1e-12)

    def test_budget_degrades_to_montecarlo(self):
        result = run(
            "LPAA 1", 14, simulate=True,
            budget=RunBudget(max_cases=1000, max_samples=2000), seed=1,
        )
        assert result.engine == "montecarlo"
        assert result.degraded_from == "exhaustive"
        assert result.samples == 2000

    def test_simulate_rejects_non_chain_requests(self):
        request = AnalysisRequest.for_multiop([[0.5] * 4] * 2, 4)
        with pytest.raises(AnalysisError):
            run(request=request, simulate=True)


class TestSelectEngine:
    def test_chain_defaults_to_cheapest_exact(self):
        decision = select_engine(AnalysisRequest.chain("LPAA 1", 8))
        assert decision.engine == "recursive"

    def test_gear_defaults_to_dp(self):
        from repro.core.adder_zoo import from_gear
        from repro.gear.config import GeArConfig

        request = AnalysisRequest.zoo(from_gear(GeArConfig(16, 4, 4)))
        assert select_engine(request).engine == "zoo-dp"

    def test_large_multiop_degrades_to_sampling(self):
        request = AnalysisRequest.for_multiop([[0.5] * 16] * 4, 16)
        decision = select_engine(request)
        assert decision.engine == "multiop-mc"
        assert decision.degraded_from == "multiop-exact"


class TestRunBatch:
    def test_matches_scalar_results(self):
        requests = [
            AnalysisRequest.chain("LPAA 3", 6, p_a=k / 10.0, p_b=0.5)
            for k in range(1, 10)
        ]
        batched = run_batch(requests)
        for request, result in zip(requests, batched):
            assert result.engine == "vectorized"
            assert result.p_error == pytest.approx(
                run(request=request, engine="recursive").p_error, abs=1e-12
            )

    def test_mixed_cells_grouped_correctly(self):
        requests = [
            AnalysisRequest.chain("LPAA 1", 4, p_a=0.2),
            AnalysisRequest.chain("LPAA 2", 4, p_a=0.2),
            AnalysisRequest.chain("LPAA 1", 4, p_a=0.8),
        ]
        batched = run_batch(requests)
        for request, result in zip(requests, batched):
            assert result.p_error == pytest.approx(
                run(request=request).p_error, abs=1e-12
            )

    def test_order_is_preserved(self):
        requests = [
            AnalysisRequest.chain("LPAA 1", 3, p_a=p)
            for p in (0.9, 0.1, 0.5)
        ]
        batched = run_batch(requests)
        scalars = [run(request=r).p_error for r in requests]
        assert [r.p_error for r in batched] == pytest.approx(scalars,
                                                             abs=1e-12)

    def test_budget_truncates_tail(self):
        requests = [
            AnalysisRequest.chain("LPAA 1", 4, p_a=k / 100.0)
            for k in range(1, 51)
        ]
        batched = run_batch(requests, budget=RunBudget(max_configs=10))
        completed = [r for r in batched if r is not None]
        assert 0 < len(completed) < len(requests)

    def test_trace_requests_fall_back_to_scalar_engine(self):
        requests = [AnalysisRequest.chain("LPAA 1", 4, keep_trace=True)]
        batched = run_batch(requests)
        assert batched[0].trace is not None

    def test_montecarlo_seed_stable(self):
        requests = [
            AnalysisRequest.chain(cell, 6, p, 1.0 - p, 0.3)
            for cell, p in (("LPAA 6", 0.2), ("LPAA 3", 0.5),
                            ("LPAA 1", 0.7), ("LPAA 6", 0.9))
        ]
        first = run_batch(requests, engine="montecarlo", samples=2000,
                          seed=42)
        again = run_batch(requests, engine="montecarlo", samples=2000,
                          seed=42)
        for a, b in zip(first, again):
            assert a.p_error == b.p_error
            assert a.interval == b.interval
            assert a.raw.wilson_interval() == b.raw.wilson_interval()


class TestErrorCurves:
    def test_matches_pointwise_runs(self):
        curve = error_curves("LPAA 2", 6, 0.3)
        assert len(curve) == 6
        for width in (1, 3, 6):
            assert curve[width - 1] == pytest.approx(
                run("LPAA 2", width, 0.3, 0.3).p_error, abs=1e-12
            )


def _random_chains(seed, count, max_width=24):
    """Seeded hybrid chains with per-bit probabilities, some at 0/1."""
    rng = random.Random(seed)
    names = ["accurate"] + [f"LPAA {i}" for i in range(1, 8)]
    requests = []
    for _ in range(count):
        width = rng.randint(1, max_width)
        cells = [rng.choice(names) for _ in range(width)]
        p_a = [rng.choice((0.0, 1.0, rng.random())) for _ in range(width)]
        p_b = [rng.random() for _ in range(width)]
        requests.append(AnalysisRequest.chain(
            cells, None, p_a, p_b, rng.choice((0.0, 1.0, rng.random())),
            check_masking=rng.random() < 0.7,
        ))
    return requests


def _with_repeats(requests, seed, size):
    """*size* picks from *requests*: repeats of the same objects, and
    equal-but-separate cell tuples, like a probability sweep."""
    rng = random.Random(seed)
    return [rng.choice(requests) for _ in range(size)]


def _head_answered_positions(requests, max_configs):
    """Which positions a budget of *max_configs* answers: groups of equal
    cell sequences in first-occurrence order, each in request order."""
    groups = {}
    for i, request in enumerate(requests):
        groups.setdefault(request.cells, []).append(i)
    order = [i for indices in groups.values() for i in indices]
    return set(order[:max_configs])


class TestRunBatchContract:
    """``run_batch`` answers every grouped request field for field as
    ``run(engine="vectorized")`` does."""

    @pytest.fixture(autouse=True)
    def _no_tiers(self):
        disable_result_cache()
        yield
        disable_result_cache()

    @staticmethod
    def _assert_matches(requests, results, engine):
        for request, result in zip(requests, results):
            assert result == run(request=request, engine=engine)

    def test_random_hybrid_chains(self):
        requests = _with_repeats(_random_chains(1, 120), 2, 300)
        self._assert_matches(requests, run_batch(requests), "vectorized")

    def test_scalar_engines_give_the_batch_bits(self):
        # One stage kernel: the default ``recursive`` engine, the
        # vectorised engine, ``run_batch`` and the ``wce`` kind's
        # P(error) all return the same bits, not merely close ones.
        requests = _with_repeats(_random_chains(1, 120), 2, 300)
        requests += _random_chains(11, 20, max_width=32)
        for seed, width in ((12, 32), (13, 64)):
            rng = random.Random(seed)
            requests += [
                AnalysisRequest.chain(
                    [rng.choice(("accurate", "LPAA 1", "LPAA 6", "LPAA 7"))
                     for _ in range(width)], None,
                    [rng.random() for _ in range(width)],
                    [rng.choice((0.0, 1.0, rng.random()))
                     for _ in range(width)],
                    rng.random())
                for _ in range(10)
            ]
        for request, grouped in zip(requests, run_batch(requests)):
            scalar = run(request=request, engine="recursive")
            assert replace(scalar, engine="vectorized") == grouped
            default = run(request)
            assert default.engine == "recursive"
            # Only the routing provenance differs.
            assert replace(default, reason=None) == scalar
            assert run(request=request, engine="vectorized") == grouped
            wce = run(AnalysisRequest.distribution(
                request.cells, None, request.p_a, request.p_b,
                request.p_cin, kind="wce"))
            assert wce.p_error == scalar.p_error

    def test_masking_decided_per_check_masking_value(self):
        cells = ["LPAA 6"] * 3 + ["LPAA 1"] * 5
        requests = [
            AnalysisRequest.chain(cells, None, p, 0.5, 0.5,
                                  check_masking=check)
            for p in (0.1, 0.6, 0.9) for check in (True, False)
        ]
        results = run_batch(requests)
        self._assert_matches(requests, results, "vectorized")
        assert [r.is_upper_bound for r in results] == [True, False] * 3

    def test_renamed_alias_keeps_its_own_names(self):
        alias = resolve_cell("LPAA 1").renamed("my-cell")
        requests = [
            AnalysisRequest.chain("LPAA 1", 6, 0.3),
            AnalysisRequest.chain(alias, 6, 0.7),
            AnalysisRequest.chain("LPAA 1", 6, 0.9),
        ]
        results = run_batch(requests)
        self._assert_matches(requests, results, "vectorized")
        assert results[1].cell_names == ("my-cell",) * 6
        assert results[0].cell_names == ("LPAA 1",) * 6

    def test_group_straddling_a_chunk(self):
        requests = [
            AnalysisRequest.chain("LPAA 5", 7, (k % 97) / 96.0, 0.4, 0.5)
            for k in range(BATCH_CHUNK + 9)
        ]
        self._assert_matches(requests, run_batch(requests), "vectorized")

    @pytest.mark.parametrize("max_configs", [1, 7, 40, BATCH_CHUNK + 3])
    def test_budget_leaves_the_same_positions_unanswered(self, max_configs):
        requests = _with_repeats(_random_chains(3, 40, max_width=6), 4,
                                 BATCH_CHUNK + 60)
        results = run_batch(requests, budget=RunBudget(
            max_configs=max_configs))
        answered = {i for i, r in enumerate(results) if r is not None}
        assert answered == _head_answered_positions(requests, max_configs)
        for i in answered:
            assert results[i] == run(request=requests[i],
                                     engine="vectorized")

    def test_grouped_answers_agree_with_exact_transfer(self):
        requests = _with_repeats(_random_chains(5, 30), 6, 80)
        requests.append(AnalysisRequest.chain(
            resolve_cell("LPAA 2").renamed("alias"), 4, 0.2))
        requests.append(AnalysisRequest.chain("LPAA 2", 4, 0.2,
                                              check_masking=False))
        requests.append(AnalysisRequest.chain("LPAA 6", 256, 0.3, 0.8))
        results = run_batch(requests)
        for request, result in zip(requests, results):
            exact = run(request=request, engine="transfer")
            assert result.engine == "vectorized"
            assert result.p_success == pytest.approx(
                exact.p_success, rel=1e-12, abs=0.0)
            assert replace(result, engine="transfer",
                           p_success=exact.p_success,
                           p_error=exact.p_error) == exact
        assert results[-3].cell_names == ("alias",) * 4

    def test_result_tier_replays_equal_results(self, tmp_path):
        requests = _with_repeats(_random_chains(7, 30), 8, 60)
        fresh = run_batch(requests)
        configure_result_cache(tmp_path)
        stored = run_batch(requests)
        configure_result_cache(tmp_path)  # drop the memory tier
        replayed = run_batch(requests)
        assert get_result_cache().stats()["disk"]["hits"] > 0
        assert stored == fresh
        assert replayed == fresh

    def test_per_group_work_scales_with_buckets_not_requests(
        self, monkeypatch
    ):
        # A sweep: the requests of one uniform chain share one cell
        # tuple, and a call picks 4,096 of them with repeats.
        pool = [AnalysisRequest.chain(cell, width, k / 16, k / 16, 0.5)
                for cell in ("LPAA 1", "LPAA 4", "accurate")
                for width in (8, 16) for k in range(17)]
        requests = _with_repeats(pool, 9, 4096)
        calls = {"names": 0, "masking": 0}
        names = AnalysisRequest.cell_names.fget
        upper_bound = backends._chain_is_upper_bound

        def counted_names(request):
            calls["names"] += 1
            return names(request)

        def counted_upper_bound(request):
            calls["masking"] += 1
            return upper_bound(request)

        monkeypatch.setattr(AnalysisRequest, "cell_names",
                            property(counted_names))
        monkeypatch.setattr(backends, "_chain_is_upper_bound",
                            counted_upper_bound)
        results = run_batch(requests)
        assert all(r is not None for r in results)
        buckets = len({id(r.cells) for r in requests})
        groups = len({r.cells for r in requests})
        assert buckets == groups == 6
        assert calls["names"] <= buckets
        assert calls["masking"] <= groups

    @staticmethod
    def _sweep(seed, size):
        """*size* picks from a Fig. 5-style pool: two uniform chains
        whose groups straddle a chunk at 4,096 picks, plus ten hybrid
        chains; every question is asked often."""
        pool = [AnalysisRequest.chain(cell, width, k / 16, k / 16, 0.5)
                for cell, width in (("LPAA 1", 8), ("LPAA 7", 16))
                for k in range(17)]
        pool += _random_chains(seed, 10, max_width=6)
        return _with_repeats(pool, seed, size)

    @staticmethod
    def _kernel_rows(requests):
        """Rows each kernel call should get: per chunk of positions, the
        request objects no earlier chunk answered."""
        groups = {}
        for i, request in enumerate(requests):
            groups.setdefault(request.cells, []).append(i)
        seen = set()
        rows = []
        for indices in groups.values():
            for start in range(0, len(indices), BATCH_CHUNK):
                fresh = {id(requests[i])
                         for i in indices[start:start + BATCH_CHUNK]} - seen
                seen |= fresh
                if fresh:
                    rows.append(len(fresh))
        return rows

    def test_one_kernel_row_per_distinct_request(self, monkeypatch):
        requests = self._sweep(14, 4 * BATCH_CHUNK)
        batches = []
        kernel = vectorized.analyze_batch

        def recording(*args, batch=None, **kwargs):
            batches.append(batch)
            return kernel(*args, batch=batch, **kwargs)

        monkeypatch.setattr(vectorized, "analyze_batch", recording)
        results = run_batch(requests)
        assert batches == self._kernel_rows(requests)
        assert sum(batches) == len({id(r) for r in requests}) < len(requests)
        assert max(batches) < BATCH_CHUNK  # a chunk held repeats
        monkeypatch.setattr(vectorized, "analyze_batch", kernel)
        for request, result in zip(requests, results):
            assert result == run(request=request, engine="vectorized")
        first = {}
        for request, result in zip(requests, results):
            assert first.setdefault(id(request), result) is result

    def test_each_distinct_request_is_written_once(self, tmp_path):
        requests = self._sweep(15, 2 * BATCH_CHUNK)
        configure_result_cache(tmp_path)
        fresh = run_batch(requests)
        distinct = len({id(r) for r in requests})
        assert distinct == len({r.content_key for r in requests})
        disk = get_result_cache().stats()["disk"]
        assert disk["writes"] == distinct < len(requests)
        configure_result_cache(tmp_path)  # drop the memory tier
        assert run_batch(requests) == fresh
        assert get_result_cache().stats()["disk"]["writes"] == 0

    def test_each_distinct_single_runs_once(self, monkeypatch):
        # Requests no group stacks (magnitude kinds, blocks, traced
        # chains) go through ``run``: once per object, not per position,
        # while the budget still counts positions.
        from repro.engine import executor

        med = AnalysisRequest.distribution("LPAA 3", 12, 0.3, kind="med")
        block = AnalysisRequest.zoo("aca1:8:4", kind="wce")
        trace = AnalysisRequest.chain("LPAA 1", 6, keep_trace=True)
        requests = [med] * 4 + [block, trace, block, med, trace]
        calls = []
        scalar = executor.run

        def counting(*args, **kwargs):
            calls.append(kwargs["request"])
            return scalar(*args, **kwargs)

        monkeypatch.setattr(executor, "run", counting)
        results = run_batch(requests)
        assert [id(r) for r in calls] == [id(med), id(block), id(trace)]
        first = {}
        for request, result in zip(requests, results):
            assert first.setdefault(id(request), result) is result
        monkeypatch.setattr(executor, "run", scalar)
        for request, result in zip(requests, results):
            assert result == run(request)
        capped = run_batch(requests, budget=RunBudget(max_configs=5))
        assert capped[:5] == results[:5]
        assert capped[5:] == [None] * 4


class TestNonFiniteEngineOutput:
    """A NaN from an engine is an error, never a clamped ``p_error``."""

    @pytest.fixture
    def nan_kernel(self, monkeypatch):
        def nan_batch(*args, batch=1, **kwargs):
            return np.full(batch, np.nan)

        monkeypatch.setattr(vectorized, "analyze_batch", nan_batch)

    def test_grouped_path_raises(self, nan_kernel):
        requests = [AnalysisRequest.chain("LPAA 1", 4, p) for p in (0.2, 0.8)]
        with pytest.raises(AnalysisError, match="non-finite"):
            run_batch(requests)

    def test_single_request_path_raises(self, nan_kernel):
        with pytest.raises(AnalysisError, match="non-finite"):
            run(AnalysisRequest.chain("LPAA 1", 4, 0.2), engine="vectorized")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_chain_result_refuses_non_finite(self, value):
        request = AnalysisRequest.chain("LPAA 1", 4)
        with pytest.raises(AnalysisError, match="non-finite"):
            backends._chain_result(request, value, "recursive", True)
