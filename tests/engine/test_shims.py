"""Deprecated entry points: still correct, but warn and point at the engine."""

from __future__ import annotations

import pytest

from repro.engine import AnalysisRequest, run
from repro.gear.config import GeArConfig


def _deprecated_call(func, *args, **kwargs):
    with pytest.warns(DeprecationWarning, match="use repro.engine"):
        return func(*args, **kwargs)


class TestChainShims:
    def test_error_probability(self):
        from repro.core.recursive import error_probability

        old = _deprecated_call(error_probability, "LPAA 1", 6, 0.3, 0.7)
        assert float(old) == pytest.approx(
            run("LPAA 1", 6, 0.3, 0.7).p_error, abs=1e-15
        )

    def test_success_probability(self):
        from repro.core.recursive import success_probability

        old = _deprecated_call(success_probability, "LPAA 2", 5)
        assert float(old) == pytest.approx(
            run("LPAA 2", 5).p_success, abs=1e-15
        )

    def test_error_batch(self):
        import numpy as np

        from repro.core.vectorized import error_batch

        pa = np.array([[0.2] * 4, [0.8] * 4])
        old = _deprecated_call(error_batch, "LPAA 3", 4, pa, 0.5)
        for row, p in zip(old, (0.2, 0.8)):
            assert float(row) == pytest.approx(
                run("LPAA 3", 4, p, 0.5).p_error, abs=1e-12
            )

    def test_error_by_width(self):
        from repro.core.vectorized import error_by_width
        from repro.engine import error_curves

        old = _deprecated_call(error_by_width, "LPAA 1", 5, 0.4)
        new = error_curves("LPAA 1", 5, 0.4)
        assert list(old) == pytest.approx(list(new), abs=1e-15)

    def test_correlated_error_probability(self):
        from repro.core.correlated import (
            JointBitDistribution,
            error_probability_correlated,
        )

        joints = [JointBitDistribution.identical(0.5) for _ in range(4)]
        old = _deprecated_call(error_probability_correlated, "LPAA 1", joints)
        assert float(old) == pytest.approx(
            run("LPAA 1", 4, joints=joints).p_error, abs=1e-15
        )


class TestBaselineAndGearShims:
    def test_inclusion_exclusion(self):
        from repro.baselines.inclusion_exclusion import (
            inclusion_exclusion_error_probability,
        )

        old = _deprecated_call(
            inclusion_exclusion_error_probability, "LPAA 1", 5
        )
        assert float(old.p_error) == pytest.approx(
            run("LPAA 1", 5, engine="inclusion-exclusion").p_error, abs=1e-15
        )

    def test_gear_error_probability(self):
        from repro.gear.analysis import gear_error_probability

        config = GeArConfig(8, 2, 2)
        old = _deprecated_call(gear_error_probability, config)
        request = AnalysisRequest.for_gear(config)
        assert float(old) == pytest.approx(
            run(request, engine="gear-dp").p_error, abs=1e-15
        )


class TestInternalCallersAreClean:
    """The library itself must not trip its own deprecation shims.

    Mirrors the CI job that runs the suite with
    ``-W error::DeprecationWarning:repro``: every internal caller has to
    go through ``repro.engine``, so user-facing paths raise no warnings.
    """

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_engine_run_paths(self):
        run("LPAA 1", 4)
        run("LPAA 1", 4, engine="exhaustive")
        run("LPAA 1", 4, simulate=True)
        run(AnalysisRequest.for_gear(GeArConfig(8, 2, 2)))

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_cli_analyze_path(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--cell", "LPAA 1", "--width", "4"]) == 0
        capsys.readouterr()

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_design_space_and_variants(self):
        from repro.explore.design_space import sweep_design_space
        from repro.gear.variants import variant_comparison

        assert sweep_design_space(["LPAA 1"], [4], [0.5])
        assert variant_comparison(8)
