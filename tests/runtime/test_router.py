"""Routed chain simulations end to end, and their provenance stamping.

The routing decisions themselves are rows of
``tests/engine/test_select_engine.py``.
"""

import pytest

from repro import engine
from repro.runtime import (
    ENGINE_EXHAUSTIVE,
    ENGINE_MONTECARLO,
    RunBudget,
)


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
        assert result.degraded_from == ENGINE_EXHAUSTIVE
        assert result.raw.manifest.degraded_from == ENGINE_EXHAUSTIVE
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
