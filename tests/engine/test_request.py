"""AnalysisRequest/AnalysisResult: normalisation, validation, hashing."""

from __future__ import annotations

import pytest

from repro import engine
from repro.core.adder_zoo import from_gear
from repro.core.exceptions import (
    AnalysisError,
    ChainLengthError,
    ProbabilityError,
)
from repro.core.hybrid import HybridChain
from repro.core.recursive import resolve_cell
from repro.core.truth_table import FullAdderTruthTable
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


class TestSharedUniformCells:
    """A uniform chain spec resolves to one shared ``cells`` tuple."""

    def test_uniform_chains_share_one_tuple(self):
        first = AnalysisRequest.chain("LPAA 1", 16, 0.2)
        assert first.cells is AnalysisRequest.chain("LPAA 1", 16, 0.7).cells
        assert first.cells is AnalysisRequest.chain(
            resolve_cell("LPAA 1"), 16, 0.9).cells
        assert first.cells is not AnalysisRequest.chain("LPAA 1", 8).cells
        assert first.cell_names == ("LPAA 1",) * 16

    def test_distribution_requests_share_it_too(self):
        med = AnalysisRequest.distribution("LPAA 2", 8, 0.2, kind="med")
        wce = AnalysisRequest.distribution("LPAA 2", 8, 0.7, kind="wce")
        assert med.cells is wce.cells
        assert med.cells is AnalysisRequest.chain("LPAA 2", 8).cells

    def test_same_rows_under_another_name_keep_their_names(self):
        original = AnalysisRequest.chain("LPAA 1", 6)
        alias = AnalysisRequest.chain(
            resolve_cell("LPAA 1").renamed("my-cell"), 6)
        custom = AnalysisRequest.chain(FullAdderTruthTable(
            resolve_cell("LPAA 1").rows, name="custom-lpaa1"), 6)
        assert original.cells == alias.cells == custom.cells
        assert alias.cells is not original.cells
        assert custom.cells is not original.cells
        assert original.cell_names == ("LPAA 1",) * 6
        assert alias.cell_names == ("my-cell",) * 6
        assert custom.cell_names == ("custom-lpaa1",) * 6
        # Asked again, each keeps its own names.
        assert AnalysisRequest.chain(
            resolve_cell("LPAA 1").renamed("my-cell"), 6).cells is alias.cells
        assert AnalysisRequest.chain("LPAA 1", 6).cell_names == (
            "LPAA 1",) * 6

    def test_hybrid_lists_get_fresh_tuples(self):
        cells = ["LPAA 1", "LPAA 2", "accurate"]
        first = AnalysisRequest.chain(cells, p_a=0.2)
        second = AnalysisRequest.chain(cells, p_a=0.7)
        assert first.cells == second.cells
        assert first.cells is not second.cells
        assert first.cell_names == ("LPAA 1", "LPAA 2", "AccuFA")
        uniform_list = AnalysisRequest.chain(["LPAA 1"] * 4)
        assert uniform_list.cells == AnalysisRequest.chain("LPAA 1", 4).cells
        assert uniform_list.cells is not AnalysisRequest.chain(
            ["LPAA 1"] * 4).cells

    def test_clear_cache_empties_the_memo(self):
        before = AnalysisRequest.chain("LPAA 3", 5).cells
        assert AnalysisRequest.chain("LPAA 3", 5).cells is before
        engine.clear_cache()
        after = AnalysisRequest.chain("LPAA 3", 5).cells
        assert after == before
        assert after is not before

    def test_width_still_validated(self):
        with pytest.raises(ChainLengthError):
            AnalysisRequest.chain("LPAA 1", 0)
        with pytest.raises(ChainLengthError):
            AnalysisRequest.chain("LPAA 1")


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
