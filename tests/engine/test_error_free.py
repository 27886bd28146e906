"""Exact zeros for error-free adders, and MRED from the linear folds.

An accurate-cell chain or an exact windowed spec never errs, so its
``med``, ``mred`` and ``error_distribution`` answers are exact zeros at
any width: the router keeps them on the DP rung (no support guard, a
linear cost, so no deadline pushes them to sampling) and the runner
answers without a fold.  Any other exact MRED answer is read off
``fold_mred``'s bracket, with the ``med`` answer's scalars.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.adder_zoo import WindowedAdderSpec, named_zoo, windowed_table
from repro.core.magnitude import fold_mred, pair_table
from repro.engine import AnalysisRequest, run, select_engine
from repro.runtime.budget import RunBudget

ZERO_KINDS = ("med", "mred", "error_distribution")
LPAA = [f"LPAA {i}" for i in range(1, 8)]


def _profile(rng, width):
    return [rng.choice((0.0, 1.0, 0.5, rng.random())) for _ in range(width)]


def _error_free(width, kind, rng):
    """An accurate chain and an exact block of *width* bits."""
    return [
        AnalysisRequest.distribution(
            "accurate", width, _profile(rng, width), _profile(rng, width),
            rng.choice((0.0, 1.0, rng.random())), kind=kind),
        AnalysisRequest.zoo(
            WindowedAdderSpec(f"exact:{width}", (0,) * width, 0),
            p_a=_profile(rng, width), p_b=_profile(rng, width), kind=kind),
    ]


def _named_error_free(width, kind):
    requests = []
    for adder in named_zoo(width):
        request = AnalysisRequest.zoo(adder.config_string, kind=kind)
        if request.is_error_free:
            requests.append(request)
    return requests


class TestErrorFreeRouting:
    @pytest.mark.parametrize("kind", ZERO_KINDS)
    def test_dp_rung_with_exact_zeros_at_every_width(self, kind):
        rng = random.Random(kind)
        for width in range(1, 65):
            for request in _error_free(width, kind, rng):
                dp = "zoo-dp" if request.block is not None \
                    else "distribution-dp"
                for budget in (None, RunBudget(deadline_s=0.001)):
                    decision = select_engine(request, budget)
                    assert decision.engine == dp
                    assert decision.degraded_from is None
                result = run(request)
                assert (result.engine, result.exact) == (dp, True)
                assert result.degraded_from is None
                assert (result.p_error, result.med, result.mse,
                        result.wce, result.bias) == (0.0, 0.0, 0.0, 0, 0.0)
                if kind == "mred":
                    assert result.mred == 0.0
                if kind == "error_distribution":
                    assert result.distribution == ((0, 1.0),)

    def test_named_error_free_configs_are_recognised(self):
        found = {adder.config_string for adder in named_zoo(16)
                 if AnalysisRequest.zoo(adder.config_string,
                                        kind="mred").is_error_free}
        assert {"rca:16", "eta:16:8", "axppa-bk:16:7", "axppa-lf:16:5",
                "axppa-ks:16:4", "axppa-sk:16:4"} <= found
        assert not AnalysisRequest.zoo("loa:16:8", kind="mred").is_error_free
        assert not AnalysisRequest.zoo("aca1:16:4",
                                       kind="mred").is_error_free

    @pytest.mark.parametrize("kind", ZERO_KINDS)
    def test_equals_the_exhaustive_oracle_up_to_width_8(self, kind):
        rng = random.Random(7)
        for width in range(1, 9):
            requests = _error_free(width, kind, rng) \
                + _named_error_free(width, kind)
            for request in requests:
                oracle = run(request=request, engine=(
                    "zoo-exhaustive" if request.block is not None
                    else "distribution-exhaustive"))
                result = run(request)
                for field in ("p_error", "med", "nmed", "mse", "wce",
                              "mred", "bias"):
                    assert getattr(result, field) == getattr(oracle, field)
                if kind == "error_distribution":
                    ((delta, mass),) = oracle.distribution
                    assert delta == 0
                    assert mass == pytest.approx(1.0, rel=1e-12)

    def test_simulation_still_samples_when_asked(self):
        request = AnalysisRequest.zoo("eta:16:8", kind="mred")
        result = run(request, simulate=True, samples=1000)
        assert (result.engine, result.exact, result.mred) == \
            ("zoo-mc", False, 0.0)


# -- MRED from the linear folds -----------------------------------------------


def _chain_mred_requests(rng):
    requests = []
    for width in range(1, 11):
        cells = [rng.choice(LPAA) for _ in range(width)]
        requests.append(AnalysisRequest.distribution(
            cells, None, _profile(rng, width), _profile(rng, width),
            rng.random(), kind="mred"))
        requests.append(AnalysisRequest.distribution(
            LPAA[width % 7], width, kind="mred"))
    return requests


def _med_twin(request):
    return replace(request, kind="med")


class TestMredFromTheFolds:
    """An exact ``mred`` answer is the midpoint of ``fold_mred``'s
    bracket over the output-difference table, and every other field is
    the ``med`` answer's, bit for bit."""

    def _check(self, request, engine, table):
        result = run(request=request, engine=engine)
        lo, hi = fold_mred(table)
        assert (result.engine, result.exact) == (engine, True)
        assert result.mred == (lo + hi) / 2
        twin = run(request=_med_twin(request), engine=engine)
        for field in ("p_error", "med", "nmed", "mse", "wce", "bias"):
            assert getattr(result, field) == getattr(twin, field), field

    def test_chain_mred(self):
        rng = random.Random(11)
        for request in _chain_mred_requests(rng):
            self._check(request, "distribution-dp", pair_table(
                list(request.cells), None, list(request.p_a),
                list(request.p_b), request.p_cin))

    def test_zoo_mred(self):
        rng = random.Random(12)
        for width in range(4, 11, 2):
            for adder in named_zoo(width):
                request = AnalysisRequest.zoo(
                    adder.config_string, p_a=_profile(rng, width),
                    p_b=_profile(rng, width), kind="mred")
                if request.block is None or request.is_error_free:
                    continue
                self._check(request, "zoo-dp", windowed_table(
                    request.block, request.p_a, request.p_b))
