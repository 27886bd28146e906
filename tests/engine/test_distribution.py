"""The error-magnitude request kinds, end to end.

Cross-validates every distribution engine against the exhaustive
oracle over the full cell zoo, pins the engine ladder's magnitude
rungs (exact DP -> truncated DP -> Monte-Carlo, with the MED, WCE and
MRED exceptions; the rung behaviours both adder shapes share are tested
once per shape), and exercises the kinds through run()/run_batch(),
the result cache and the serving layer.
"""

import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.core.adder_zoo import named_zoo, windowed_table
from repro.core.exceptions import AnalysisError
from repro.core.magnitude import (
    chain_table,
    fold_law,
    fold_moments,
    fold_sparse,
)
from repro.engine.diskcache import (
    cacheable_result,
    payload_from_result,
    request_key,
    result_from_payload,
)
from repro.engine.distribution import DIST_EXACT_MAX_WIDTH
from repro.engine.registry import REGISTRY
from repro.engine.request import (
    DISTRIBUTION_KINDS,
    KIND_ERROR_DISTRIBUTION,
    KIND_MED,
    KIND_MRED,
    KIND_WCE,
    AnalysisRequest,
)
from repro.runtime.budget import RunBudget
from repro.engine.executor import select_engine
from repro.simulation.exhaustive import exhaustive_quality


class TestAnalyticalMatchesExhaustive:
    """The acceptance bar: DP == enumeration for every zoo cell."""

    WIDTH = 6
    P_A = [0.2, 0.7, 0.5, 0.9, 0.4, 0.6]
    P_B = [0.4, 0.1, 0.8, 0.3, 0.55, 0.25]
    P_CIN = 0.6

    def _run(self, cell, kind, backend):
        request = AnalysisRequest.distribution(
            cell, self.WIDTH, self.P_A, self.P_B, self.P_CIN, kind=kind)
        return engine.run(request, engine=backend)

    @pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
    def test_dp_matches_oracle_across_the_zoo(self, lpaa_cell, kind):
        report = exhaustive_quality(
            lpaa_cell, self.WIDTH, self.P_A, self.P_B, self.P_CIN)
        got = self._run(lpaa_cell, kind, "distribution-dp")
        oracle = self._run(lpaa_cell, kind, "distribution-exhaustive")
        assert got.exact and oracle.exact
        if kind == KIND_WCE:
            assert got.wce == oracle.wce
            assert got.wce == max((abs(d) for d in report.pmf), default=0)
        elif kind == KIND_MRED:
            assert got.mred == pytest.approx(report.mred, abs=1e-12)
            assert oracle.mred == pytest.approx(report.mred, abs=1e-12)
        else:
            assert got.med == pytest.approx(oracle.med, abs=1e-10)
            assert got.mse == pytest.approx(oracle.mse, abs=1e-8)
            assert got.p_error == pytest.approx(oracle.p_error, abs=1e-12)
        if kind == KIND_ERROR_DISTRIBUTION:
            assert dict(got.distribution) == pytest.approx(
                {d: p for d, p in report.pmf.items() if p > 0}, abs=1e-12)

    def test_hybrid_chain_matches_oracle(self):
        chain = ["LPAA 7", "LPAA 3", "LPAA 1", "accurate", "LPAA 5"]
        report = exhaustive_quality(chain, None, 0.5, 0.5, 0.5)
        result = engine.run(chain, None, kind="med")
        assert result.engine == "distribution-dp"
        med_ref = sum(abs(d) * p for d, p in report.pmf.items())
        assert result.med == pytest.approx(med_ref, abs=1e-10)
        assert result.bias == pytest.approx(report.bias, abs=1e-10)

    def test_truncated_dp_is_lossless_at_narrow_width(self):
        # At width 6 every |delta| < 2^QUANT_BITS, so quantisation is
        # the identity and the truncated rung must agree bit-for-bit --
        # while still flagging itself as an estimate.
        exact = self._run("LPAA 5", KIND_MED, "distribution-dp")
        trunc = self._run("LPAA 5", KIND_MED, "distribution-dp-truncated")
        assert trunc.med == pytest.approx(exact.med, abs=1e-12)
        assert trunc.exact is False and exact.exact is True


LPAA = [f"LPAA {i}" for i in range(1, 8)]

#: The two adder shapes, by their engine-name prefix.
SHAPES = [pytest.param("distribution", id="chain"),
          pytest.param("zoo", id="block")]


def _truncation_requests(prefix):
    """Hybrid chains at widths 14-16, or every windowed width-16 block."""
    if prefix == "zoo":
        return [AnalysisRequest.zoo(adder, kind=KIND_ERROR_DISTRIBUTION)
                for adder in named_zoo(16)
                if adder.representation == "windowed"]
    rng = random.Random(14)
    lpaa = [f"LPAA {i}" for i in range(1, 8)]
    chains = [["LPAA 6"] * 14 + ["LPAA 4"] * 2]
    for _ in range(20):
        width = rng.randint(14, 16)
        low, high = rng.sample(lpaa, 2)
        cut = rng.randint(1, width - 1)
        chains.append([low] * cut + [high] * (width - cut))
    return [AnalysisRequest.distribution(cells,
                                         kind=KIND_ERROR_DISTRIBUTION)
            for cells in chains]


class TestTruncatedErrorRate:
    """Past width 12 quantisation moves deltas, and the truncated rung's
    ``p_error`` must still be the exact rung's error rate.  Rounding a
    chain's local-error sums breaks this (they can cancel later; the
    first hybrid is one such case), the carry-pair table does not."""

    @pytest.mark.parametrize("prefix", SHAPES)
    def test_truncation_keeps_the_error_rate(self, prefix):
        for request in _truncation_requests(prefix):
            exact = engine.run(request, engine=f"{prefix}-dp")
            trunc = engine.run(request, engine=f"{prefix}-dp-truncated")
            assert math.isclose(trunc.p_error, exact.p_error,
                                rel_tol=1e-12), request.cell_names


class TestHypothesisCrossValidation:
    """Randomised hybrid chains: DP == enumeration wherever both run."""

    chains = st.lists(
        st.sampled_from([f"LPAA {i}" for i in range(1, 8)] + ["accurate"]),
        min_size=1, max_size=5)
    # a 1/20 grid keeps the 0/1 edge cases while avoiding denormal
    # probabilities whose path weights underflow in the enumeration
    # oracle (the DP keeps any positive-probability path, however tiny).
    probabilities = st.integers(0, 20).map(lambda k: k / 20.0)

    @given(chain=chains, p_a=probabilities, p_b=probabilities,
           p_cin=probabilities)
    @settings(max_examples=30, deadline=None)
    def test_med_and_wce_match_enumeration(self, chain, p_a, p_b, p_cin):
        report = exhaustive_quality(chain, None, p_a, p_b, p_cin)
        med_ref = sum(abs(d) * p for d, p in report.pmf.items())
        wce_ref = max((abs(d) for d, p in report.pmf.items() if p > 0),
                      default=0)
        med = engine.run(chain, None, p_a, p_b, p_cin, kind=KIND_MED,
                         engine="distribution-dp")
        wce = engine.run(chain, None, p_a, p_b, p_cin, kind=KIND_WCE,
                         engine="distribution-dp")
        assert med.med == pytest.approx(med_ref, abs=1e-9)
        assert wce.wce == wce_ref


def _med_requests(prefix, width):
    """LPAA 1-7 chains, or a spread of the windowed width-*width* zoo,
    under one skewed operand profile."""
    if prefix == "zoo":
        blocks = [adder for adder in named_zoo(width)
                  if adder.representation == "windowed"]
        return [AnalysisRequest.zoo(adder.config_string, 0.3, 0.6,
                                    kind=KIND_MED)
                for adder in blocks[::5]]
    return [AnalysisRequest.distribution(f"LPAA {i}", width, 0.3, 0.6, 0.4,
                                         kind=KIND_MED)
            for i in range(1, 8)]


class TestMedIsExactAtEveryWidth:
    """``med`` has no width limit: every routed MED answer comes from the
    exact ``dp`` rung's linear folds, whatever the width."""

    @pytest.mark.parametrize("prefix", SHAPES)
    @pytest.mark.parametrize("width", [17, 20, 32, 48, 62, 63, 64, 128,
                                       256])
    def test_routed_med_is_the_exact_dp(self, prefix, width):
        for request in _med_requests(prefix, width):
            routed = engine.run(request)
            assert routed.engine == f"{prefix}-dp", request.cell_names
            assert routed.exact and routed.degraded_from is None
            forced = engine.run(request, engine=f"{prefix}-dp")
            assert replace(routed, reason=None) \
                == replace(forced, reason=None)

    @pytest.mark.parametrize("prefix", SHAPES)
    @pytest.mark.parametrize("width", [17, 18, 19, 20])
    def test_med_matches_the_exact_pmf_past_its_guard(self, prefix, width):
        # The PMF folds answer past the router's guard once max_entries
        # is raised; the linear MED fold must match their E|D|.
        for request in _med_requests(prefix, width):
            if prefix == "zoo":
                law = fold_sparse(windowed_table(
                    request.block, request.p_a, request.p_b),
                    max_entries=1 << 26)
                deltas, probs = law.deltas, law.probs
            else:
                deltas, probs = fold_law(chain_table(
                    list(request.cells), None, list(request.p_a),
                    list(request.p_b), request.p_cin),
                    max_entries=1 << 26).support()
            med = float(np.abs(np.asarray(deltas, dtype=float))
                        @ np.asarray(probs))
            assert math.isclose(engine.run(request).med, med,
                                rel_tol=1e-12), request.cell_names

    @pytest.mark.parametrize("prefix", SHAPES)
    @pytest.mark.parametrize("width", [17, 20])
    def test_truncated_pmf_answer_has_the_exact_scalars(self, prefix,
                                                        width):
        for request in _med_requests(prefix, width):
            exact = engine.run(request, engine=f"{prefix}-dp")
            trunc = engine.run(
                replace(request, kind=KIND_ERROR_DISTRIBUTION),
                engine=f"{prefix}-dp-truncated")
            assert trunc.exact is False and trunc.distribution is not None
            for field in ("p_error", "med", "nmed", "mse", "wce", "bias"):
                assert getattr(trunc, field) == getattr(exact, field), \
                    (request.cell_names, field)


class TestMredIsExactAtEveryWidth:
    """``mred`` has no width limit either: every routed MRED answer is
    the exact ``dp`` rung's bracket midpoint, exact at every width."""

    @pytest.mark.parametrize("prefix", SHAPES)
    @pytest.mark.parametrize("width", [1, 12, 13, 16, 24, 33, 48, 62, 63,
                                       64, 128])
    def test_routed_mred_is_the_exact_dp(self, prefix, width):
        requests = [replace(request, kind=KIND_MRED)
                    for request in _med_requests(prefix, width)]
        if prefix == "distribution" and width > 1:
            rng = random.Random(width)
            for _ in range(3):
                low, high = rng.sample(LPAA, 2)
                cut = rng.randint(1, width - 1)
                requests.append(AnalysisRequest.distribution(
                    [low] * cut + [high] * (width - cut),
                    p_a=[rng.uniform(0.02, 0.98) for _ in range(width)],
                    p_b=[rng.uniform(0.02, 0.98) for _ in range(width)],
                    kind=KIND_MRED))
        for request in requests:
            for budget in (None, RunBudget(deadline_s=1e-9)):
                decision = select_engine(request, budget)
                assert (decision.engine, decision.degraded_from) \
                    == (f"{prefix}-dp", None), request.cell_names
            routed = engine.run(request)
            assert routed.engine == f"{prefix}-dp", request.cell_names
            assert routed.exact is True and type(routed.mred) is float
            assert 0.0 <= routed.mred < float("inf")

    @pytest.mark.parametrize("prefix", SHAPES)
    def test_mred_matches_the_oracle_at_width_8(self, prefix):
        for request in _med_requests(prefix, 8):
            request = replace(request, kind=KIND_MRED)
            oracle = engine.run(request, engine=f"{prefix}-exhaustive")
            assert math.isclose(engine.run(request).mred, oracle.mred,
                                rel_tol=1e-12), request.cell_names

    @pytest.mark.parametrize("prefix", SHAPES)
    def test_simulate_still_samples_mred(self, prefix):
        request = replace(_med_requests(prefix, 32)[0], kind=KIND_MRED)
        result = engine.run(request, simulate=True, samples=2_000)
        assert (result.engine, result.exact) == (f"{prefix}-mc", False)


class TestWideWidths:
    def test_wce_is_exact_at_64_bits(self):
        result = engine.run("LPAA 5", 64, kind=KIND_WCE)
        assert result.engine == "distribution-dp"
        assert result.exact is True
        assert result.wce == 2 ** 63

    def test_truncated_med_near_exact_moments_at_32_bits(self):
        # error_moments is an independent exact O(N) computation of
        # E[|D|]-adjacent quantities; the truncated PMF's E[D^2] must
        # land within the documented ~width * 2^-11 relative drift,
        # and the answer's own scalars are the exact folds'.
        from repro.core.magnitude import error_moments

        result = engine.run("LPAA 1", 32, kind=KIND_ERROR_DISTRIBUTION)
        assert result.engine == "distribution-dp-truncated"
        mom = error_moments("LPAA 1", 32, 0.5, 0.5, 0.5)
        pmf = result.distribution
        pmf_mse = float(pmf.deltas.astype(float) ** 2 @ pmf.probs)
        assert pmf_mse == pytest.approx(mom.second_moment, rel=1e-2)
        assert result.mse == pytest.approx(mom.second_moment, rel=1e-12)

    def test_mc_interval_contains_truncated_dp_med_at_32_bits(self):
        # A 95% interval misses on about 1 seed in 20 by construction,
        # so check its coverage over K seeds, and that the estimates
        # centre on the DP value: both within four standard errors.
        k = 400
        dp = engine.run("LPAA 1", 32, kind=KIND_MED)
        covered = 0
        z = []
        for seed in range(k):
            mc = engine.run("LPAA 1", 32, kind=KIND_MED,
                            engine="distribution-mc", samples=50_000,
                            seed=seed)
            assert mc.engine == "distribution-mc"
            lo, hi = mc.interval
            covered += lo <= dp.med <= hi
            z.append((mc.med - dp.med) / ((hi - lo) / (2 * 1.96)))
        assert abs(covered / k - 0.95) <= 4 * math.sqrt(0.95 * 0.05 / k)
        assert abs(sum(z) / k) <= 4 / math.sqrt(k)


class TestRouterLadder:
    def _req(self, width, kind=KIND_MED):
        return AnalysisRequest.distribution("LPAA 1", width, kind=kind)

    def test_mred_skips_the_truncated_rung(self):
        # No width limit and no fallback: the exact rung is final.
        dp = REGISTRY.get("distribution-dp")
        assert KIND_MRED not in dp.width_limits
        assert KIND_MRED not in dp.degrades_to
        for width in (13, 17, 33, 64):
            decision = select_engine(self._req(width, kind=KIND_MRED))
            assert decision.engine == "distribution-dp"
            assert decision.degraded_from is None

    @pytest.mark.parametrize("kind", [KIND_MED, KIND_ERROR_DISTRIBUTION])
    def test_half_second_deadline_keeps_the_exact_dp(self, kind):
        # The dense kernel answers width 16 in milliseconds, so a 0.5 s
        # deadline must not push it down to the truncated rung.
        budget = RunBudget(deadline_s=0.5)
        decision = select_engine(
            self._req(DIST_EXACT_MAX_WIDTH, kind=kind), budget=budget)
        assert decision.engine == "distribution-dp"
        assert decision.degraded_from is None
        result = engine.run("LPAA 1", DIST_EXACT_MAX_WIDTH, kind=kind,
                            budget=budget)
        assert result.engine == "distribution-dp"
        assert result.exact is True

    @pytest.mark.parametrize("request_, prefix", [
        pytest.param(AnalysisRequest.distribution("LPAA 1", 8,
                                                  kind=KIND_MRED),
                     "distribution", id="chain"),
        pytest.param(AnalysisRequest.zoo("aca1:8:4", kind=KIND_MRED),
                     "zoo", id="block"),
    ])
    def test_truncated_engine_answers_mred(self, request_, prefix):
        # Forced, the truncated rung gives the exact rung's MRED, flagged
        # as an estimate like every answer of that rung.
        trunc = engine.run(request_, engine=f"{prefix}-dp-truncated")
        exact = engine.run(request_, engine=f"{prefix}-dp")
        assert (trunc.engine, trunc.exact) == (f"{prefix}-dp-truncated",
                                               False)
        assert exact.exact is True and trunc.mred == exact.mred > 0

    @pytest.mark.parametrize("request_, samples, seed, expected, p_error", [
        pytest.param(AnalysisRequest.distribution("LPAA 1", 8,
                                                  kind=KIND_MED),
                     5_000, 1, "distribution-mc", None, id="chain"),
        pytest.param(AnalysisRequest.zoo("aca1:8:4"), 20_000, 7, "zoo-mc",
                     0.125, id="block"),
    ])
    def test_simulate_forces_the_sampling_backend(self, request_, samples,
                                                   seed, expected, p_error):
        result = engine.run(request_, simulate=True, samples=samples,
                            seed=seed)
        assert result.engine == expected
        assert result.samples == samples
        if p_error is not None:
            assert result.p_error == pytest.approx(p_error, abs=0.02)

    @pytest.mark.parametrize("request_, sampler", [
        pytest.param(AnalysisRequest.distribution("LPAA 1", 8,
                                                  kind=KIND_MED),
                     "distribution-mc", id="chain"),
        pytest.param(AnalysisRequest.zoo("aca1:8:4", kind=KIND_MED),
                     "zoo-mc", id="block"),
    ])
    def test_seed_none_is_an_unseeded_stream(self, request_, sampler):
        forced = engine.run(request_, engine=sampler, samples=2_000,
                            seed=None)
        routed = engine.run(request_, simulate=True, samples=2_000,
                            seed=None)
        for result in (forced, routed):
            assert result.engine == sampler
            assert result.samples == 2_000
            assert result.med >= 0.0


class TestTruncatedBias:
    """The truncated rungs report the exact E[D] as ``bias``: the
    linear moments fold, not a cancelling sum over quantised deltas."""

    @pytest.mark.parametrize("cell, width, p_a, p_b", [
        ("LPAA 1", 20, 0.3, 0.7),
        ("LPAA 5", 32, 0.5, 0.5),  # E[D] is exactly 0.0 here
    ])
    def test_chain_bias_is_the_moments_fold_mean(self, cell, width, p_a,
                                                 p_b):
        request = AnalysisRequest.distribution(cell, width, p_a, p_b,
                                               kind=KIND_MED)
        result = engine.run(request, engine="distribution-dp-truncated")
        table = chain_table(list(request.cells), None, list(request.p_a),
                            list(request.p_b), request.p_cin)
        assert result.bias == fold_moments(table).mean

    def test_zoo_bias_is_the_moments_fold_mean(self):
        adder = next(a for a in named_zoo(24)
                     if a.config_string == "aca1:24:2")
        request = AnalysisRequest.zoo(adder.config_string, 0.3, 0.7,
                                      kind=KIND_MED)
        result = engine.run(request, engine="zoo-dp-truncated")
        table = windowed_table(request.block, request.p_a, request.p_b)
        assert result.bias == fold_moments(table).mean


class TestExecutorSurface:
    def test_run_rejects_an_unknown_kind(self):
        with pytest.raises(AnalysisError, match="kind"):
            engine.run("LPAA 1", 4, kind="medx")

    def test_run_rejects_a_conflicting_prebuilt_kind(self):
        request = AnalysisRequest.distribution("LPAA 1", 4, kind=KIND_MED)
        with pytest.raises(AnalysisError):
            engine.run(request, kind=KIND_WCE)

    def test_run_batch_mixes_chain_and_distribution_kinds(self):
        requests = [
            AnalysisRequest.chain("LPAA 1", 6),
            AnalysisRequest.distribution("LPAA 1", 6, kind=KIND_MED),
            AnalysisRequest.distribution("LPAA 5", 6, kind=KIND_WCE),
        ]
        results = engine.run_batch(requests)
        assert [r.kind for r in results] == ["chain", KIND_MED, KIND_WCE]
        assert results[1].med == pytest.approx(
            engine.run(requests[1]).med, abs=1e-12)
        assert results[2].wce == engine.run(requests[2]).wce

    def test_distribution_result_carries_provenance(self):
        result = engine.run("LPAA 1", 20, kind=KIND_ERROR_DISTRIBUTION)
        assert result.engine == "distribution-dp-truncated"
        assert result.degraded_from == "distribution-dp"
        assert "support guard" in result.reason


class TestResultCachePayloads:
    def test_distribution_kinds_are_keyable_and_kind_distinct(self):
        keys = {
            request_key(AnalysisRequest.distribution(
                "LPAA 1", 6, kind=kind))
            for kind in DISTRIBUTION_KINDS
        }
        assert None not in keys
        assert len(keys) == len(DISTRIBUTION_KINDS)

    @pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
    def test_payload_round_trip_preserves_the_metrics(self, kind):
        result = engine.run(
            AnalysisRequest.distribution("LPAA 2", 5, kind=kind))
        restored = result_from_payload(
            json.loads(json.dumps(payload_from_result(result))))
        assert restored.kind == kind
        for field in ("med", "nmed", "mse", "wce", "mred", "bias"):
            assert getattr(restored, field) == getattr(result, field)
        assert restored.distribution == result.distribution

    def test_truncated_results_are_never_cached(self):
        result = engine.run("LPAA 1", 20, kind=KIND_ERROR_DISTRIBUTION)
        assert result.engine == "distribution-dp-truncated"
        assert result.exact is False
        assert not cacheable_result(result)

    def test_exact_distribution_results_are_cacheable(self):
        result = engine.run("LPAA 1", 6, kind=KIND_MED)
        assert cacheable_result(result)


class TestServeDocs:
    def test_parse_analysis_doc_accepts_a_kind(self):
        from repro.serve.service import parse_analysis_doc

        request = parse_analysis_doc(
            {"cell": "LPAA 1", "width": 6, "kind": "med"})
        assert request.kind == KIND_MED
        assert request.width == 6

    def test_parse_analysis_doc_rejects_an_unknown_kind(self):
        from repro.serve.service import RequestParseError, parse_analysis_doc

        with pytest.raises(RequestParseError, match="kind"):
            parse_analysis_doc({"cell": "LPAA 1", "width": 6,
                                "kind": "nope"})

    def test_result_to_doc_keeps_the_plain_chain_shape(self):
        from repro.serve.service import result_to_doc

        doc = result_to_doc(engine.run("LPAA 1", 4))
        assert "kind" not in doc and "med" not in doc

    def test_result_to_doc_serialises_distribution_results(self):
        from repro.serve.service import result_to_doc

        doc = result_to_doc(engine.run(
            "LPAA 2", 4, kind=KIND_ERROR_DISTRIBUTION))
        assert doc["kind"] == KIND_ERROR_DISTRIBUTION
        assert doc["wce"] == 15
        assert doc["med"] == pytest.approx(3.6171875)
        assert all(len(pair) == 2 for pair in doc["distribution"])
        json.dumps(doc)  # must be JSON-clean end to end


class TestCli:
    @pytest.mark.parametrize("kind", ["med", "wce", "error_distribution"])
    def test_distribution_subcommand_prints_the_metrics(self, kind, capsys):
        from repro.cli import main

        assert main(["distribution", "--cell", "LPAA 1", "--width", "6",
                     "--kind", kind]) == 0
        out = capsys.readouterr().out
        assert "distribution-dp" in out
        assert kind in out

    def test_distribution_subcommand_reports_mc_interval(self, capsys):
        from repro.cli import main

        assert main(["distribution", "--cell", "LPAA 1", "--width", "40",
                     "--kind", "error_distribution", "--samples", "20000",
                     "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "distribution-mc" in out
        assert "interval" in out
