"""Unified executor: selection, explicit engines, batching, budgets."""

from __future__ import annotations

import pytest

from repro.core.exceptions import AnalysisError
from repro.engine import AnalysisRequest, run, run_batch, select_engine
from repro.engine.executor import error_curves
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
        for name in ("vectorized", "inclusion-exclusion", "exhaustive"):
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
        assert result.degraded_from == "chunked-exhaustive"
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


class TestErrorCurves:
    def test_matches_pointwise_runs(self):
        curve = error_curves("LPAA 2", 6, 0.3)
        assert len(curve) == 6
        for width in (1, 3, 6):
            assert curve[width - 1] == pytest.approx(
                run("LPAA 2", width, 0.3, 0.3).p_error, abs=1e-12
            )
