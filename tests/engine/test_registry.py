"""Engine registry: capability metadata, lookup, cost-ranked selection."""

from __future__ import annotations

import pytest

from repro.core.exceptions import AnalysisError
from repro.engine import (
    FAMILY_ANALYTICAL,
    FAMILY_SIMULATION,
    KIND_CHAIN,
    REGISTRY,
    AnalysisRequest,
    EngineInfo,
    EngineRegistry,
    register_builtin_engines,
)

register_builtin_engines()


def _dummy(name, **overrides):
    base = dict(
        name=name,
        family=FAMILY_ANALYTICAL,
        request_kinds=(KIND_CHAIN,),
        exact=True,
        run=lambda request, **options: None,
        cost_estimate=lambda request: float(request.width),
    )
    base.update(overrides)
    return EngineInfo(**base)


class TestBuiltinPopulation:
    def test_expected_engines_present(self):
        for name in ("recursive", "vectorized", "correlated",
                     "inclusion-exclusion", "exhaustive", "montecarlo",
                     "multiop-exact", "multiop-mc"):
            assert name in REGISTRY

    def test_reregistration_is_idempotent(self):
        names = REGISTRY.names()
        register_builtin_engines()
        assert REGISTRY.names() == names

    def test_unknown_engine_error_lists_known(self):
        with pytest.raises(AnalysisError, match="unknown engine"):
            REGISTRY.get("quantum-annealer")


class TestCapabilities:
    def test_exhaustive_rejects_wide_requests(self):
        info = REGISTRY.get("exhaustive")
        narrow = AnalysisRequest.chain("LPAA 1", 4)
        wide = AnalysisRequest.chain("LPAA 1", info.max_width + 1)
        assert info.accepts(narrow)
        assert not info.accepts(wide)

    def test_only_correlated_engine_takes_joints(self):
        from repro.core.correlated import JointBitDistribution

        joints = tuple(
            JointBitDistribution.independent(0.5, 0.5) for _ in range(4)
        )
        request = AnalysisRequest.chain("LPAA 1", 4, joints=joints)
        assert REGISTRY.get("correlated").accepts(request)
        assert not REGISTRY.get("recursive").accepts(request)
        assert not REGISTRY.get("montecarlo").accepts(request)

    def test_trace_requests_need_trace_support(self):
        request = AnalysisRequest.chain("LPAA 1", 4, keep_trace=True)
        assert REGISTRY.get("recursive").accepts(request)
        assert not REGISTRY.get("vectorized").accepts(request)

    def test_montecarlo_is_inexact_simulation(self):
        info = REGISTRY.get("montecarlo")
        assert info.family == FAMILY_SIMULATION
        assert not info.exact
        assert info.default_samples is not None


class TestSelection:
    def test_for_request_sorted_by_cost(self):
        request = AnalysisRequest.chain("LPAA 1", 8)
        ranked = REGISTRY.for_request(request, family=FAMILY_ANALYTICAL,
                                      exact=True)
        costs = [info.cost_estimate(request) for info in ranked]
        assert costs == sorted(costs)
        assert ranked[0].name == "recursive"

    def test_family_filter(self):
        request = AnalysisRequest.chain("LPAA 1", 8)
        sims = REGISTRY.for_request(request, family=FAMILY_SIMULATION)
        assert {info.family for info in sims} == {FAMILY_SIMULATION}

    def test_exhaustive_cost_matches_case_count(self):
        info = REGISTRY.get("exhaustive")
        assert info.cost_estimate(AnalysisRequest.chain("LPAA 1", 4)) \
            == pytest.approx(float(1 << 9))
        assert info.cost_estimate(AnalysisRequest.chain("LPAA 1", 12)) \
            == pytest.approx(float(1 << 25))


class TestRegistration:
    def test_duplicate_name_rejected(self):
        registry = EngineRegistry()
        registry.register(_dummy("one"))
        with pytest.raises(AnalysisError, match="already registered"):
            registry.register(_dummy("one"))

    def test_replace_flag_overwrites(self):
        registry = EngineRegistry()
        registry.register(_dummy("one"))
        replacement = registry.register(_dummy("one", exact=False),
                                        replace=True)
        assert registry.get("one") is replacement

    def test_names_sorted(self):
        registry = EngineRegistry()
        registry.register(_dummy("zeta"))
        registry.register(_dummy("alpha"))
        assert registry.names() == ["alpha", "zeta"]
