"""AnalysisRequest/AnalysisResult: normalisation, validation, hashing."""

from __future__ import annotations

import pytest

from repro.core.adder_zoo import from_gear
from repro.core.exceptions import (
    AnalysisError,
    ChainLengthError,
    ProbabilityError,
)
from repro.core.hybrid import HybridChain
from repro.engine import (
    KIND_CHAIN,
    KIND_MULTIOP,
    METRIC_P_ERROR,
    METRIC_P_SUCCESS,
    AnalysisRequest,
    request_key,
)
from repro.gear.config import GeArConfig


class TestChainNormalisation:
    def test_name_and_width(self):
        request = AnalysisRequest.chain("LPAA 1", 4)
        assert request.kind == KIND_CHAIN
        assert request.width == 4
        assert request.cell_names == ("LPAA 1",) * 4
        assert request.p_a == (0.5,) * 4
        assert request.p_b == (0.5,) * 4
        assert request.p_cin == 0.5

    def test_scalar_probability_broadcasts(self):
        request = AnalysisRequest.chain("LPAA 2", 3, p_a=0.1, p_b=[0.2, 0.3, 0.4])
        assert request.p_a == (0.1, 0.1, 0.1)
        assert request.p_b == (0.2, 0.3, 0.4)

    def test_hybrid_chain_unwraps(self):
        chain = HybridChain(["LPAA 1", "LPAA 2", "AccuFA"])
        request = AnalysisRequest.chain(chain)
        assert request.cell_names == ("LPAA 1", "LPAA 2", "AccuFA")

    def test_per_stage_cell_list(self):
        request = AnalysisRequest.chain(["LPAA 1", "AccuFA"])
        assert request.width == 2

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ProbabilityError):
            AnalysisRequest.chain("LPAA 1", 4, p_a=1.5)

    def test_wrong_length_vector_rejected(self):
        with pytest.raises(ProbabilityError):
            AnalysisRequest.chain("LPAA 1", 4, p_b=[0.5, 0.5])

    def test_joint_count_must_match_width(self):
        with pytest.raises(AnalysisError):
            AnalysisRequest.chain("LPAA 1", 3, joints=[object(), object()])

    def test_zero_width_rejected(self):
        with pytest.raises(ChainLengthError, match="width"):
            AnalysisRequest.chain("LPAA 1", 0)


class TestMetrics:
    def test_default_metric(self):
        assert AnalysisRequest.chain("LPAA 1", 2).metrics == (METRIC_P_ERROR,)

    def test_unknown_metric_rejected(self):
        with pytest.raises(AnalysisError):
            AnalysisRequest.chain("LPAA 1", 2, metrics=["p_banana"])

    def test_metrics_deduplicated(self):
        request = AnalysisRequest.chain(
            "LPAA 1", 2,
            metrics=[METRIC_P_ERROR, METRIC_P_SUCCESS, METRIC_P_ERROR],
        )
        assert request.metrics.count(METRIC_P_ERROR) == 1


class TestHashability:
    def test_equal_requests_hash_equal(self):
        a = AnalysisRequest.chain("LPAA 3", 5, p_a=0.25)
        b = AnalysisRequest.chain("LPAA 3", 5, p_a=0.25)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_distinct_probability_distinguishes(self):
        a = AnalysisRequest.chain("LPAA 3", 5, p_a=0.25)
        b = AnalysisRequest.chain("LPAA 3", 5, p_a=0.26)
        assert a != b


class TestOtherKinds:
    def test_gear_request(self):
        # A GeAr question is a zoo block request under the canonical
        # config string, so it shares one cache entry with "gear:8:2:2".
        request = AnalysisRequest.zoo(from_gear(GeArConfig(8, 2, 2)))
        assert request.kind == KIND_CHAIN
        assert request.width == 8
        assert request.cell_names == ("gear:8:2:2",)
        assert request == AnalysisRequest.zoo("gear:8:2:2")
        assert request_key(request) == request_key(
            AnalysisRequest.zoo("gear:8:2:2"))

    def test_multiop_request(self):
        request = AnalysisRequest.for_multiop([[0.5] * 4] * 3, 4)
        assert request.kind == KIND_MULTIOP
        assert request.width == 4


class TestResult:
    def test_value_accessor(self):
        from repro.engine import run

        result = run("LPAA 1", 4)
        assert result.value(METRIC_P_ERROR) == pytest.approx(result.p_error)
        assert result.value(METRIC_P_SUCCESS) == pytest.approx(
            1.0 - result.p_error
        )
