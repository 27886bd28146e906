"""Process-pool executor: bit identity, budgets, merging, eligibility."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.core.exceptions import AnalysisError
from repro.engine import AnalysisRequest, select_engine
from repro.engine.cache import GLOBAL_CACHE, clear_cache
from repro.engine.parallel import (
    PARALLEL_EXHAUSTIVE,
    budget_allows_parallel,
    resolve_jobs,
)
from repro.engine.registry import REGISTRY
from repro.runtime import RunBudget

JOBS = 2  # modest: CI machines may expose few cores


def _chain_requests(count: int, width: int = 6):
    rng = np.random.default_rng(count * 7919 + width)
    cells = ("LPAA 6", "LPAA 3", "LPAA 1")
    return [
        AnalysisRequest.chain(
            cells[i % len(cells)], width,
            float(rng.uniform(0.02, 0.98)),
            float(rng.uniform(0.02, 0.98)),
            float(rng.uniform(0.02, 0.98)),
        )
        for i in range(count)
    ]


class TestResolveJobs:
    def test_serial_spellings(self):
        for value in ("off", None, False, 0, 1):
            assert resolve_jobs(value) == 0

    def test_explicit_count(self):
        assert resolve_jobs(4) == 4
        assert resolve_jobs("3") == 3

    def test_auto_uses_cpu_count(self):
        import os

        expected = os.cpu_count() or 1
        assert resolve_jobs("auto") == (0 if expected < 2 else expected)

    def test_rejects_garbage(self):
        with pytest.raises(AnalysisError, match="parallelism"):
            resolve_jobs("many")
        with pytest.raises(AnalysisError, match=">= 0"):
            resolve_jobs(-2)


class TestBudgetGate:
    def test_deadline_and_configs_parallelise(self):
        assert budget_allows_parallel(None)
        assert budget_allows_parallel(RunBudget(deadline_s=5.0))
        assert budget_allows_parallel(RunBudget(max_configs=10))

    def test_global_sample_and_case_caps_stay_serial(self):
        assert not budget_allows_parallel(RunBudget(max_samples=100))
        assert not budget_allows_parallel(RunBudget(max_cases=100))


class TestRegistryFlags:
    def test_stateless_engines_are_parallel_safe(self):
        for name in ("recursive", "vectorized", "inclusion-exclusion",
                     "exhaustive", "montecarlo"):
            assert REGISTRY.get(name).parallel_safe, name

    def test_correlated_stays_in_parent(self):
        assert not REGISTRY.get("correlated").parallel_safe


class TestBitIdentity:
    """Acceptance: parallel results bit-identical to a serial run."""

    def test_analytical_sweep_identical(self):
        requests = _chain_requests(24)
        serial = engine.run_batch(requests)
        parallel = engine.run_batch(requests, parallelism=JOBS)
        for s, p in zip(serial, parallel):
            assert s.p_error == p.p_error  # exact, not approx
            assert s.engine == p.engine == "vectorized"

    @settings(max_examples=3, deadline=None)
    @given(
        count=st.integers(min_value=2, max_value=12),
        width=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_analytical_property(self, count, width, seed):
        rng = np.random.default_rng(seed)
        requests = [
            AnalysisRequest.chain(
                "LPAA 6" if i % 2 else "LPAA 2", width,
                float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
            )
            for i in range(count)
        ]
        serial = engine.run_batch(requests)
        parallel = engine.run_batch(requests, parallelism=JOBS)
        assert [s.p_error for s in serial] == [p.p_error for p in parallel]

    def test_montecarlo_seed_stable(self):
        requests = _chain_requests(4)
        serial = engine.run_batch(requests, engine="montecarlo",
                                  samples=2000, seed=42)
        parallel = engine.run_batch(requests, parallelism=JOBS,
                                    engine="montecarlo", samples=2000,
                                    seed=42)
        for s, p in zip(serial, parallel):
            assert s.p_error == p.p_error
            assert s.interval == p.interval
            assert s.raw.wilson_interval() == p.raw.wilson_interval()

    def test_error_curves_sliced_identically(self):
        p = np.linspace(0.02, 0.98, 17)
        serial = engine.error_curves("LPAA 6", 10, p, 0.3)
        parallel = engine.error_curves("LPAA 6", 10, p, 0.3,
                                       parallelism=JOBS)
        assert np.array_equal(serial, parallel)

    def test_error_curves_scalar_p_stays_serial(self):
        serial = engine.error_curves("LPAA 6", 8, 0.4, 0.3)
        parallel = engine.error_curves("LPAA 6", 8, 0.4, 0.3,
                                       parallelism=JOBS)
        assert np.array_equal(serial, parallel)

    def test_parallel_exhaustive_matches_exhaustive(self):
        request = AnalysisRequest.chain("LPAA 6", 7, 0.3, 0.4, 0.5)
        serial = engine.run(request=request, engine="exhaustive")
        sharded = engine.run(request=request, engine=PARALLEL_EXHAUSTIVE,
                             jobs=JOBS)
        assert serial.p_error == sharded.p_error
        assert sharded.engine == PARALLEL_EXHAUSTIVE
        assert sharded.exact and not sharded.truncated
        assert sharded.cases == 1 << (2 * 7 + 1)


class TestBatchInvariance:
    """The vectorised recursion is elementwise along the batch axis --
    the numerical contract the sharding rests on (fixed-order masked
    sums instead of BLAS matvecs whose reduction order varies with the
    batch shape)."""

    def test_analyze_batch_rows_independent_of_batch_mates(self):
        from repro.core import analyze_batch, get_cell

        cells = [get_cell("LPAA 6")] * 5
        rng = np.random.default_rng(3)
        pa = rng.uniform(0, 1, size=(9, 5))
        pb = rng.uniform(0, 1, size=(9, 5))
        pc = rng.uniform(0, 1, size=9)
        full = analyze_batch(cells, None, pa, pb, pc, batch=9)
        for split in (1, 4, 8):
            pieces = np.concatenate([
                analyze_batch(cells, None, pa[:split], pb[:split],
                              pc[:split], batch=split),
                analyze_batch(cells, None, pa[split:], pb[split:],
                              pc[split:], batch=9 - split),
            ])
            assert np.array_equal(full, pieces), split

    def test_success_by_width_rows_independent_of_batch_mates(self):
        from repro.core import get_cell, success_by_width

        table = get_cell("LPAA 3")
        rng = np.random.default_rng(5)
        p = rng.uniform(0, 1, size=11)
        full = success_by_width(table, 9, p, 0.3)
        singles = np.vstack([
            success_by_width(table, 9, p[i:i + 1], 0.3) for i in range(11)
        ])
        assert np.array_equal(full, singles)


class TestBudgets:
    def test_max_configs_admission_control(self):
        requests = _chain_requests(20)
        results = engine.run_batch(requests, parallelism=JOBS,
                                   budget=RunBudget(max_configs=7))
        assert sum(r is not None for r in results) == 7

    def test_sample_capped_budget_falls_back_to_serial(self):
        # The gate keeps global caps exact: same answers either way.
        requests = _chain_requests(4)
        capped = engine.run_batch(requests, parallelism=JOBS,
                                  budget=RunBudget(max_samples=10**6))
        serial = engine.run_batch(requests,
                                  budget=RunBudget(max_samples=10**6))
        assert [r.p_error for r in capped] == [r.p_error for r in serial]


class TestEligibility:
    def test_trace_requests_run_in_parent(self):
        plain = _chain_requests(3)
        traced = AnalysisRequest.chain("LPAA 6", 6, 0.3, 0.4, 0.5,
                                       keep_trace=True)
        results = engine.run_batch(plain + [traced], parallelism=JOBS)
        assert all(r is not None for r in results)
        assert len(results[-1].trace) == 6

    def test_forced_unsafe_engine_runs_in_parent(self):
        from repro.core.correlated import JointBitDistribution

        joints = [JointBitDistribution.identical(0.5) for _ in range(4)]
        correlated = AnalysisRequest.chain("LPAA 1", 4, joints=joints)
        results = engine.run_batch(
            _chain_requests(3, width=4) + [correlated], parallelism=JOBS)
        assert results[-1].engine == "correlated"


class TestRouterRung:
    def test_parallel_rung_between_exhaustive_and_montecarlo(self):
        budget = RunBudget(deadline_s=0.15)
        request = AnalysisRequest.chain("LPAA 1", 10)
        serial_plan = select_engine(request, budget, simulate=True)
        pooled_plan = select_engine(request, budget, simulate=True, jobs=8)
        assert serial_plan.engine == "montecarlo"
        assert pooled_plan.engine == PARALLEL_EXHAUSTIVE
        assert pooled_plan.degraded_from == "chunked-exhaustive"

    def test_pool_cannot_rescue_arbitrarily_large_widths(self):
        decision = select_engine(AnalysisRequest.chain("LPAA 1", 16),
                                 RunBudget(deadline_s=0.01),
                                 simulate=True, jobs=8)
        assert decision.engine == "montecarlo"


class TestObsMerging:
    def test_worker_cache_deltas_merge_into_global_counters(self):
        clear_cache()
        try:
            requests = _chain_requests(8)
            engine.run_batch(requests, parallelism=JOBS, engine="recursive")
            stats = GLOBAL_CACHE.stats()
            assert stats.hits + stats.misses > 0
        finally:
            clear_cache()

    def test_worker_metric_deltas_merge_to_the_serial_totals(self):
        # S4 hammer: the per-backend timers and request counters the
        # workers record must fold back into the parent registry with
        # exactly the counts a serial pass produces -- bucket counts are
        # exact sums, never sampled or lost at the process boundary.
        from repro.obs import metrics

        def run(parallelism):
            registry = metrics.MetricsRegistry()
            metrics.enable()
            try:
                with metrics.use_registry(registry):
                    engine.run_batch(_chain_requests(8),
                                     parallelism=parallelism,
                                     engine="recursive")
            finally:
                metrics.disable()
            return registry.snapshot()

        serial = run(0)
        parallel = run(JOBS)
        for counter in ("engine.requests", "engine.selected.recursive",
                        "core.recursive.calls", "core.recursive.stages"):
            assert parallel["counters"][counter] == \
                serial["counters"][counter], counter
        # The workers' timer histograms merge bucket-for-bucket: same
        # observation count, all of them inside finite buckets.
        serial_timer = serial["timers"]["engine.recursive.seconds"]
        merged_timer = parallel["timers"]["engine.recursive.seconds"]
        assert merged_timer["count"] == serial_timer["count"] == 8
        assert merged_timer["buckets"][-1][0] == "+Inf"
        assert merged_timer["buckets"][-1][1] == 8
        assert merged_timer["total_s"] > 0
        # Quantiles survive the merge (bucketed fallback path).
        assert merged_timer["p50_s"] > 0

    def test_worker_request_id_reaches_chunk_spans(self):
        from repro.obs.correlate import use_request_id
        from repro.obs.tracing import Tracer, use_tracer

        tracer = Tracer()
        with use_request_id("req-parallel"), use_tracer(tracer):
            engine.run_batch(_chain_requests(6), parallelism=JOBS)
        chunk_attrs = []

        def walk(span):
            if span.name == "engine.parallel.chunk":
                chunk_attrs.append(span.attrs)
            for child in span.children:
                walk(child)

        for root in tracer.roots:
            walk(root)
        assert chunk_attrs
        assert all(a.get("request_id") == "req-parallel"
                   for a in chunk_attrs)

    def test_worker_spans_graft_with_pid_lanes(self):
        from repro.obs.tracing import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            engine.run_batch(_chain_requests(6), parallelism=JOBS)
        chunk_spans = []

        def walk(span):
            if span.name == "engine.parallel.chunk":
                chunk_spans.append(span)
            for child in span.children:
                walk(child)

        for root in tracer.roots:
            walk(root)
        assert chunk_spans
        import os

        parent = os.getpid()
        assert all(s.thread_id != parent for s in chunk_spans)
        # One Chrome trace, one lane per worker PID.
        events = tracer.to_chrome()["traceEvents"]
        assert {e["name"] for e in events} >= {"engine.run_batch",
                                              "engine.parallel.chunk"}

    def test_use_tracer_detaches_inherited_span(self):
        # Regression: forked workers inherit the parent's active span;
        # a fresh tracer must not attach new spans to the inherited copy.
        from repro.obs.tracing import Tracer, trace_span, use_tracer

        outer = Tracer()
        with use_tracer(outer):
            with trace_span("outer.region"):
                inner = Tracer()
                with use_tracer(inner):
                    with trace_span("inner.region"):
                        pass
        assert [s.name for s in inner.roots] == ["inner.region"]
        assert [s.name for s in outer.roots] == ["outer.region"]
        assert not outer.roots[0].children


class TestExploreLayer:
    def test_tradeoff_curve_parallel_matches_serial(self):
        from repro.explore.hybrid_search import hybrid_tradeoff_curve

        weights = [0.0, 0.002, 0.01]
        serial = hybrid_tradeoff_curve(["LPAA 1", "LPAA 6"], 5, weights,
                                       0.2, 0.2, 0.2)
        parallel = hybrid_tradeoff_curve(["LPAA 1", "LPAA 6"], 5, weights,
                                         0.2, 0.2, 0.2, parallelism=JOBS)
        assert len(serial.results) == len(parallel.results)
        for a, b in zip(serial.results, parallel.results):
            assert a.chain == b.chain
            assert a.p_error == b.p_error

    def test_design_space_parallel_matches_serial(self):
        from repro.explore.design_space import sweep_design_space

        probs = [0.1, 0.3, 0.5, 0.7, 0.9]
        serial = sweep_design_space(["LPAA 6"], [4, 6], probs)
        parallel = sweep_design_space(["LPAA 6"], [4, 6], probs,
                                      parallelism=JOBS)
        assert [p.p_error for p in serial] == [p.p_error for p in parallel]
