"""The ``zoo-*`` engines (the magnitude ladder on windowed blocks), end
to end.

Cross-validates every windowed zoo member against weighted enumeration
for every request kind (bit-identical at dyadic probabilities), pins
the zoo rungs' registry width limits (the routing decisions themselves
are rows of ``test_select_engine.py``; rung behaviours both adder
shapes share are tested once per shape in ``test_distribution.py``),
and exercises block requests through ``run()``/``run_batch()``, the
two-way ``supports_block`` capability gate, the persistent result cache
and the Monte-Carlo fallback.
"""

import math

import pytest

from repro import engine
from repro.core.adder_zoo import named_zoo, parse_adder
from repro.core.exceptions import AnalysisError
from repro.engine.diskcache import (
    cacheable_result,
    payload_from_result,
    request_key,
    result_from_payload,
)
from repro.engine.request import AnalysisRequest, DISTRIBUTION_KINDS
from repro.engine.distribution import DIST_EXACT_MAX_WIDTH
from repro.engine.registry import REGISTRY

WIDTH = 8
ALL_KINDS = ("chain",) + DISTRIBUTION_KINDS


def _windowed(width):
    return [a for a in named_zoo(width) if a.representation == "windowed"]


class TestCrossValidationMatrix:
    """The acceptance bar: every zoo member x every kind == oracle."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_windowed_member_matches_enumeration(self, kind):
        for adder in _windowed(WIDTH):
            request = AnalysisRequest.zoo(adder, kind=kind)
            fast = engine.run(request, engine="zoo-dp")
            oracle = engine.run(request, engine="zoo-exhaustive")
            assert fast.p_error == oracle.p_error, adder.config_string
            if kind == "chain":
                continue
            if kind == "mred":
                assert math.isclose(fast.mred, oracle.mred,
                                    rel_tol=1e-12), adder.config_string
            else:
                value = getattr(fast, kind if kind != "error_distribution"
                                else "med")
                ref = getattr(oracle, kind if kind != "error_distribution"
                              else "med")
                assert value == ref, adder.config_string
            if kind == "error_distribution":
                assert fast.distribution == oracle.distribution

    def test_every_chain_member_matches_enumeration(self):
        for adder in named_zoo(WIDTH):
            if adder.representation != "chain":
                continue
            request = AnalysisRequest.zoo(adder)
            routed = engine.run(request)
            oracle = engine.run(request, engine="exhaustive")
            assert routed.p_error == oracle.p_error, adder.config_string

    def test_routed_default_equals_forced_dp(self):
        for config in ("aca1:8:4", "gda:8:2:2", "axppa-lf:8:2"):
            request = AnalysisRequest.zoo(config, kind="med")
            assert engine.run(request).med == \
                engine.run(request, engine="zoo-dp").med


class TestRouterLadder:
    def test_exact_width_limits(self):
        dp = REGISTRY.get("zoo-dp")
        assert "chain" not in dp.width_limits
        assert "wce" not in dp.width_limits
        assert "med" not in dp.width_limits
        assert "mred" not in dp.width_limits
        assert dp.width_limits["error_distribution"] == DIST_EXACT_MAX_WIDTH


class TestCapabilityGate:
    """supports_block cuts both ways."""

    def test_block_requests_never_reach_chain_engines(self):
        request = AnalysisRequest.zoo("aca1:8:4")
        for name in ("recursive", "vectorized", "exhaustive",
                     "montecarlo", "distribution-dp"):
            info = engine.REGISTRY.get(name)
            assert not info.accepts(request), name

    def test_chain_requests_never_reach_zoo_engines(self):
        request = AnalysisRequest.chain("LPAA 1", 8)
        for name in ("zoo-dp", "zoo-dp-truncated", "zoo-exhaustive",
                     "zoo-mc"):
            info = engine.REGISTRY.get(name)
            assert not info.accepts(request), name

    def test_forcing_a_chain_engine_on_a_block_request_raises(self):
        with pytest.raises(AnalysisError):
            engine.run(AnalysisRequest.zoo("aca1:8:4"), engine="recursive")


class TestExecutorIntegration:
    def test_run_batch_mixes_block_chain_and_cell_requests(self):
        requests = [
            AnalysisRequest.zoo("aca1:8:4"),
            AnalysisRequest.chain("LPAA 1", 8),
            AnalysisRequest.zoo("loa:8:4"),
            AnalysisRequest.zoo("gda:8:2:2", kind="med"),
        ]
        results = engine.run_batch(requests)
        assert results[0].p_error == 0.125
        assert results[1].p_error == pytest.approx(
            engine.run("LPAA 1", 8).p_error)
        assert results[2].p_error == 0.68359375
        assert results[3].med == 1.5

    def test_zoo_mc_is_seeded_and_converges(self):
        request = AnalysisRequest.zoo("gda:8:2:2", kind="med")
        a = engine.run(request, engine="zoo-mc", samples=50_000, seed=3)
        b = engine.run(request, engine="zoo-mc", samples=50_000, seed=3)
        assert a.p_error == b.p_error and a.med == b.med
        assert a.med == pytest.approx(1.5, rel=0.1)
        assert a.interval is not None and not a.exact

    def test_zoo_requests_use_the_result_cache(self, tmp_path):
        engine.configure_result_cache(tmp_path / "cache")
        try:
            request = AnalysisRequest.zoo("aca1:8:4", kind="med")
            first = engine.run(request)
            second = engine.run(request)
            assert first.med == second.med == 7.5
            key = request_key(request)
            assert key is not None
        finally:
            engine.disable_result_cache()

    def test_block_request_key_is_stable_and_distinct(self):
        a = request_key(AnalysisRequest.zoo("aca1:8:4"))
        b = request_key(AnalysisRequest.zoo("aca1:8:4"))
        c = request_key(AnalysisRequest.zoo("aca2:8:4"))
        d = request_key(AnalysisRequest.zoo("aca1:8:4", kind="med"))
        assert a == b
        assert a != c and a != d

    def test_block_results_round_trip_the_cache_payload(self):
        request = AnalysisRequest.zoo("gda:8:2:2", kind="wce")
        result = engine.run(request, engine="zoo-dp")
        assert cacheable_result(result)
        payload = payload_from_result(result)
        restored = result_from_payload(payload)
        assert restored.p_error == result.p_error
        assert restored.wce == result.wce


class TestRequestConstruction:
    def test_zoo_rejects_unknown_kind(self):
        with pytest.raises(AnalysisError):
            AnalysisRequest.zoo("aca1:8:4", kind="gear")

    def test_zoo_width_comes_from_the_block(self):
        request = AnalysisRequest.zoo("aca1:12:4")
        assert request.width == 12
        assert request.cell_names == ("aca1:12:4",)

    def test_chain_members_become_plain_chain_requests(self):
        request = AnalysisRequest.zoo("loa:8:4")
        assert request.block is None
        assert request.cells is not None and len(request.cells) == 8

    def test_windowed_members_carry_the_block(self):
        request = AnalysisRequest.zoo("axppa-ks:8:2")
        assert request.block is not None
        assert request.p_cin == 0.0
