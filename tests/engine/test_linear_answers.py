"""The exact DP rungs' linear-time magnitude answers.

``med`` (and the scalar fields of ``error_distribution``) come from
four linear folds -- ``fold_med`` and ``fold_nonzero`` over the
output-difference table, the moments and extremes over the carry table
-- instead of a reduction over the PMF.  Each field must match an
independent reference within 1e-12 relative: the enumeration oracle
where it is affordable, the PMF folds (``fold_law`` / ``fold_sparse``)
where it is not.  A ``med`` answer must not run a PMF fold at all.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from repro import engine
from repro.core.adder_zoo import named_zoo, windowed_table
from repro.core.magnitude import error_law, fold_sparse
from repro.core.masking import chain_is_exact
from repro.core.metrics import max_exact_output
from repro.engine import AnalysisRequest
from repro.engine import distribution as dist_module
from repro.engine.registry import OPS_PER_SECOND, REGISTRY

LPAA = [f"LPAA {i}" for i in range(1, 8)]
REL = 1e-12
#: Widths the enumeration oracle checks in tier-1 time; wider chains are
#: checked against the dense PMF fold (the oracle costs 0.8 s at width
#: 11 and 3.2 s at 12 per chain).
ORACLE_WIDTHS = range(1, 11)


def profile_vector(rng: random.Random, width: int):
    """A jittered operand profile like the explore-mixed benchmark's:
    one of four shapes over the bit position, plus +-0.05 jitter,
    clamped to [0.02, 0.98] and rounded to 6 digits."""
    shapes = (lambda x: 0.5, lambda x: 0.5 - 0.45 * x,
              lambda x: 0.1 + 0.8 * x, lambda x: 0.8)
    shape = rng.choice(shapes)
    return [round(min(0.98, max(0.02, shape(i / max(1, width - 1))
                                + rng.uniform(-0.05, 0.05))), 6)
            for i in range(width)]


def _reference(pairs, width):
    """Every checked field reduced from ``(delta, prob)`` pairs with
    exactly rounded sums."""
    pairs = [(d, p) for d, p in pairs if p > 0.0]
    med = math.fsum(abs(d) * p for d, p in pairs)
    return {
        "med": med,
        "nmed": med / max_exact_output(width),
        "mse": math.fsum(float(d) * float(d) * p for d, p in pairs),
        "bias": math.fsum(d * p for d, p in pairs),
        "wce": max(abs(d) for d, _ in pairs),
        "p_error": math.fsum(p for d, p in pairs if d != 0),
    }


def _assert_matches(result, ref, label):
    for name in ("med", "nmed", "mse", "p_error"):
        assert math.isclose(getattr(result, name), ref[name],
                            rel_tol=REL, abs_tol=1e-15), (label, name)
    # E[D] cancels: compare it on the scale of E|D|.
    assert abs(result.bias - ref["bias"]) <= REL * ref["med"] + 1e-15, \
        (label, "bias")
    assert result.wce == ref["wce"], (label, "wce")


def _oracle_pairs(request):
    """The enumeration oracle's PMF for *request*'s adder."""
    ask = replace(request, kind="error_distribution")
    return engine.run(request=ask,
                      engine=("zoo-exhaustive" if request.block is not None
                              else "distribution-exhaustive")).distribution


def _chain_requests(width, rng):
    for cell in LPAA:
        yield AnalysisRequest.distribution(cell, width, kind="med")
        yield AnalysisRequest.distribution(
            cell, width, profile_vector(rng, width),
            profile_vector(rng, width), rng.uniform(0.02, 0.98),
            kind="med")


def _propagating_profile(rng: random.Random, width: int):
    """``p_a`` near 1 and ``p_b`` near ``1 - p_a`` at every bit: nearly
    every bit propagates, so carry mismatches run far up the word."""
    p_a = [round(rng.uniform(0.97, 0.999), 6) for _ in range(width)]
    p_b = [round(min(1.0, max(0.0, 1.0 - p + rng.uniform(-0.005, 0.005))),
                 6) for p in p_a]
    return p_a, p_b


def _propagating_requests(width, rng, approx_bits):
    """LPAA chains whose low *approx_bits* cells are approximate under
    accurate ones, at propagate-heavy operand profiles."""
    for cell in LPAA:
        for approx in approx_bits:
            chain = [cell] * approx + ["accurate"] * (width - approx)
            p_a, p_b = _propagating_profile(rng, width)
            yield AnalysisRequest.distribution(
                chain, None, p_a, p_b, rng.uniform(0.02, 0.98), kind="med")


class TestChainsAgainstTheOracle:
    @pytest.mark.parametrize("width", ORACLE_WIDTHS)
    def test_lpaa_uniform_and_jittered(self, width):
        rng = random.Random(width)
        for request in _chain_requests(width, rng):
            result = engine.run(request=request, engine="distribution-dp")
            assert result.exact
            _assert_matches(result,
                            _reference(_oracle_pairs(request), width),
                            request.cell_names[0])

    @pytest.mark.parametrize("width", [8, 10])
    def test_propagate_heavy_chains(self, width):
        rng = random.Random(width)
        for request in _propagating_requests(width, rng,
                                             (1, width // 2, width)):
            result = engine.run(request=request, engine="distribution-dp")
            _assert_matches(result,
                            _reference(_oracle_pairs(request), width),
                            request.cell_names)

    def test_random_width_8_hybrids_including_masking_chains(self):
        rng = random.Random(56)
        cells = LPAA + ["accurate"]
        masking = 0
        for _ in range(56):
            chain = [rng.choice(cells) for _ in range(8)]
            masking += not chain_is_exact(chain)
            request = AnalysisRequest.distribution(
                chain, None, [rng.random() for _ in range(8)],
                [rng.random() for _ in range(8)], rng.random(), kind="med")
            result = engine.run(request=request, engine="distribution-dp")
            _assert_matches(result, _reference(_oracle_pairs(request), 8),
                            chain)
        assert masking >= 5


class TestChainsAgainstThePmfFold:
    @pytest.mark.parametrize("width", range(11, 17))
    def test_lpaa_uniform_and_jittered(self, width):
        rng = random.Random(width)
        for request in _chain_requests(width, rng):
            result = engine.run(request=request, engine="distribution-dp")
            law = error_law(list(request.cells), None, list(request.p_a),
                            list(request.p_b), request.p_cin)
            deltas, probs = law.support()
            _assert_matches(result, _reference(
                zip(deltas.tolist(), probs.tolist()), width),
                request.cell_names[0])

    @pytest.mark.parametrize("width", [16, 62])
    def test_propagate_heavy_hybrids(self, width):
        # Forced past the router's width limit at 62: the low cells'
        # local errors keep the dense PMF fold small at any width.
        rng = random.Random(width)
        for request in _propagating_requests(width, rng, (1, 4)):
            result = engine.run(request=request, engine="distribution-dp")
            law = error_law(list(request.cells), None, list(request.p_a),
                            list(request.p_b), request.p_cin)
            deltas, probs = law.support()
            _assert_matches(result, _reference(
                zip(deltas.tolist(), probs.tolist()), width),
                request.cell_names)

    def test_error_distribution_carries_the_med_answers_scalars(self):
        rng = random.Random(3)
        for request in _chain_requests(16, rng):
            med = engine.run(request=request)
            pmf = engine.run(request=AnalysisRequest.distribution(
                list(request.cells), None, list(request.p_a),
                list(request.p_b), request.p_cin,
                kind="error_distribution"))
            for name in ("p_error", "med", "nmed", "mse", "wce", "bias"):
                assert getattr(pmf, name) == getattr(med, name), name
            law = error_law(list(request.cells), None, list(request.p_a),
                            list(request.p_b), request.p_cin)
            deltas, probs = law.support()
            assert (pmf.distribution.deltas == deltas).all()
            assert (pmf.distribution.probs == probs).all()


def _blocks(width):
    for adder in named_zoo(width):
        request = AnalysisRequest.zoo(adder, kind="med")
        if request.block is not None and not request.is_error_free:
            yield adder


class TestBlocks:
    @pytest.mark.parametrize("jitter", [False, True])
    def test_named_zoo_8_against_the_oracle(self, jitter):
        rng = random.Random(8)
        for adder in _blocks(8):
            p_a = profile_vector(rng, 8) if jitter else 0.5
            p_b = profile_vector(rng, 8) if jitter else 0.5
            request = AnalysisRequest.zoo(adder, p_a, p_b, kind="med")
            result = engine.run(request=request, engine="zoo-dp")
            _assert_matches(result, _reference(_oracle_pairs(request), 8),
                            adder.config_string)

    @pytest.mark.parametrize("width", [12, 16])
    def test_named_zoo_against_the_sparse_fold(self, width):
        rng = random.Random(width)
        for adder in _blocks(width):
            for p_a, p_b in ((0.5, 0.5), (profile_vector(rng, width),
                                          profile_vector(rng, width))):
                request = AnalysisRequest.zoo(adder, p_a, p_b, kind="med")
                result = engine.run(request=request, engine="zoo-dp")
                law = fold_sparse(windowed_table(request.block,
                                                 request.p_a, request.p_b))
                _assert_matches(result, _reference(
                    zip(law.deltas.tolist(), law.probs.tolist()), width),
                    adder.config_string)


class TestNoPmfFoldForMed:
    """A ``med`` answer is linear: it never runs ``fold_law`` or
    ``fold_sparse``, on either shape."""

    def test_width_16_med_runs_no_pmf_fold(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a med answer ran a PMF fold")

        monkeypatch.setattr(dist_module, "fold_law", refuse)
        monkeypatch.setattr(dist_module, "fold_sparse", refuse)
        rng = random.Random(16)
        requests = [
            AnalysisRequest.distribution("LPAA 5", 16, kind="med"),
            AnalysisRequest.distribution(
                "LPAA 3", 16, profile_vector(rng, 16),
                profile_vector(rng, 16), kind="med"),
            AnalysisRequest.zoo("aca1:16:4", kind="med"),
            AnalysisRequest.zoo("gda:16:4:1", profile_vector(rng, 16),
                                profile_vector(rng, 16), kind="med"),
        ]
        for request in requests:
            result = engine.run(request=request)
            assert result.engine.endswith("-dp") and result.med > 0.0

    @pytest.mark.parametrize("engine_name, request_", [
        ("distribution-dp", AnalysisRequest.distribution("LPAA 1", 16,
                                                         kind="med")),
        ("zoo-dp", AnalysisRequest.zoo("aca1:16:4", kind="med")),
        ("distribution-dp", AnalysisRequest.distribution("LPAA 1", 16,
                                                         kind="mred")),
        ("zoo-dp", AnalysisRequest.zoo("aca1:16:4", kind="mred")),
    ])
    def test_the_cost_model_charges_med_linearly(self, engine_name,
                                                 request_):
        cost = REGISTRY.get(engine_name).cost_estimate(request_)
        assert cost / OPS_PER_SECOND < 0.005    # seconds


class TestTinyErrorRates:
    """``P(error)`` is the nonzero-increment mass, summed without
    cancellation: a rate far below 1e-8 keeps its relative precision
    (``1 - P(no error)`` returned 8.9e-16 for a 1.2e-17 block rate)."""

    @pytest.mark.parametrize("p", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_chain_med_and_block_chain_answers(self, p):
        for request, dp, oracle in (
            (AnalysisRequest.distribution("LPAA 1", 8, p, p, p, kind="med"),
             "distribution-dp", "distribution-exhaustive"),
            (AnalysisRequest.zoo("aca1:8:2", p, p, kind="chain"),
             "zoo-dp", "zoo-exhaustive"),
        ):
            got = engine.run(request=request, engine=dp).p_error
            want = engine.run(request=request, engine=oracle).p_error
            assert math.isclose(got, want, rel_tol=REL), (request.kind, p)
