"""Chain simulation rungs of the engine ladder and provenance stamping."""

import pytest

from repro import engine
from repro.engine import AnalysisRequest, select_engine
from repro.runtime import (
    ENGINE_CHUNKED_EXHAUSTIVE,
    ENGINE_EXHAUSTIVE,
    ENGINE_MONTECARLO,
    RunBudget,
)
from repro.simulation.exhaustive import MAX_EXHAUSTIVE_WIDTH


def plan(width, budget=None):
    return select_engine(AnalysisRequest.chain("LPAA 1", width), budget,
                         simulate=True)


class TestPlanEngine:
    def test_small_width_uses_exhaustive(self):
        decision = plan(4)
        assert decision.engine == ENGINE_EXHAUSTIVE
        assert decision.degraded_from is None
        assert decision.estimated_cases == 1 << 9

    def test_large_width_chunks(self):
        decision = plan(12)
        assert decision.engine == ENGINE_CHUNKED_EXHAUSTIVE
        assert decision.degraded_from == ENGINE_EXHAUSTIVE

    def test_absurd_width_falls_to_montecarlo(self):
        decision = plan(MAX_EXHAUSTIVE_WIDTH + 1)
        assert decision.engine == ENGINE_MONTECARLO
        assert decision.degraded_from == ENGINE_CHUNKED_EXHAUSTIVE

    def test_case_budget_forces_montecarlo(self):
        decision = plan(8, RunBudget(max_cases=1_000))
        assert decision.engine == ENGINE_MONTECARLO
        assert decision.estimated_cases == 1 << 17

    def test_deadline_heuristic_forces_montecarlo(self):
        # 2^29 cases cannot fit a 0.001 s deadline at any plausible rate.
        decision = plan(14, RunBudget(deadline_s=0.001))
        assert decision.engine == ENGINE_MONTECARLO
        assert "deadline" in decision.reason

    def test_mc_samples_respect_budget_cap(self):
        decision = plan(20, RunBudget(max_samples=5_000))
        assert decision.samples == 5_000

    def test_invalid_width_rejected(self):
        from repro.core.exceptions import ChainLengthError

        with pytest.raises(ChainLengthError, match="width"):
            plan(0)


class TestResilientErrorProbability:
    """``run(..., simulate=True)``: the routed simulation end to end."""

    def test_exhaustive_path_is_exact(self):
        result = engine.run("LPAA 1", 4, simulate=True)
        assert result.engine == ENGINE_EXHAUSTIVE
        assert not result.truncated
        assert result.p_error == pytest.approx(
            engine.run("LPAA 1", 4).p_error, abs=1e-12
        )
        assert result.raw.manifest.degraded_from is None

    def test_degradation_is_stamped_into_provenance(self):
        result = engine.run(
            "LPAA 2", 10, simulate=True,
            budget=RunBudget(max_cases=100, max_samples=20_000), seed=5,
        )
        assert result.engine == ENGINE_MONTECARLO
        assert result.degraded_from == ENGINE_CHUNKED_EXHAUSTIVE
        assert result.raw.manifest.degraded_from \
            == ENGINE_CHUNKED_EXHAUSTIVE
        assert result.samples == 20_000

    def test_routed_checkpointing_works(self, tmp_path):
        ckpt = tmp_path / "routed.ckpt"
        options = dict(simulate=True, budget=RunBudget(max_samples=10_000),
                       samples=10_000, seed=2, checkpoint_path=str(ckpt))
        routed = engine.run("LPAA 3", 18, **options)
        assert routed.engine == ENGINE_MONTECARLO
        assert ckpt.exists()
        resumed = engine.run("LPAA 3", 18, resume=True, **options)
        assert resumed.raw.errors == routed.raw.errors
