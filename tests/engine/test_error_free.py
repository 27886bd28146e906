"""Exact zeros for error-free adders, and the array-native joint law.

An accurate-cell chain or an exact windowed spec never errs, so its
``med``, ``mred`` and ``error_distribution`` answers are exact zeros at
any width: the router keeps them on the DP rung (no support guard, a
linear cost, so no deadline pushes them to sampling) and the runner
answers without a fold.  The exact MRED path reduces the fold's arrays
instead of looping over a joint dict; a frozen copy of the dict loops
pins it bit for bit.
"""

from __future__ import annotations

import random

import pytest

from repro.core.adder_zoo import (
    WindowedAdderSpec,
    named_zoo,
    windowed_joint_error_pmf,
)
from repro.core.magnitude import joint_error_pmf, relative_error_from_joint
from repro.engine import AnalysisRequest, run, select_engine
from repro.engine.distribution import _pmf_fields, _result
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


# -- frozen copies of the dict loops the joint law replaced -----------------


def _frozen_relative_error(joint):
    return float(sum(
        abs(delta) / float(max(value, 1)) * prob
        for (delta, value), prob in joint.items()
    ))


def _frozen_joint_result(request, engine, joint):
    pmf = {}
    for (delta, _value), prob in joint.items():
        pmf[delta] = pmf.get(delta, 0.0) + prob
    fields, error_rate = _pmf_fields(pmf, request)
    fields["mred"] = _frozen_relative_error(joint)
    return _result(request, engine, True, error_rate, **fields)


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


class TestJointMredIsFrozen:
    def test_chain_mred_bit_for_bit(self):
        rng = random.Random(11)
        for request in _chain_mred_requests(rng):
            joint = joint_error_pmf(list(request.cells), None,
                                    list(request.p_a), list(request.p_b),
                                    request.p_cin)
            expected = _frozen_joint_result(request, "distribution-dp",
                                            joint)
            assert run(request=request, engine="distribution-dp") == expected
            assert relative_error_from_joint(joint) == expected.mred

    def test_zoo_mred_bit_for_bit(self):
        rng = random.Random(12)
        for width in range(4, 11, 2):
            for adder in named_zoo(width):
                request = AnalysisRequest.zoo(
                    adder.config_string, p_a=_profile(rng, width),
                    p_b=_profile(rng, width), kind="mred")
                if request.block is None or request.is_error_free:
                    continue
                joint = windowed_joint_error_pmf(request.block, request.p_a,
                                                 request.p_b)
                expected = _frozen_joint_result(request, "zoo-dp", joint)
                assert run(request=request, engine="zoo-dp") == expected

    def test_empty_joint_law(self):
        assert relative_error_from_joint({}) == 0.0
