"""The one engine ladder: ``select_engine`` as a decision table.

Each row is ``(request, budget, samples, simulate) -> (engine,
degraded_from, samples, estimated_cases)``, optionally with a substring
the decision's reason must contain.  The rows cover every request shape
(chain, hybrid, trace, joints, the distribution kinds, the zoo kinds
with GeAr among them, multi-operand) and every reason a rung can fail
to fit: a width limit, a support guard, one enumeration block,
``max_cases`` and a deadline.
"""

import pytest

from repro import engine
from repro.core.correlated import JointBitDistribution
from repro.core.exceptions import AnalysisError
from repro.engine import AnalysisRequest, select_engine
from repro.runtime import RunBudget

MC = 1_000_000          # montecarlo's default sample count
DIST_MC = 200_000       # distribution-mc / zoo-mc / multiop-mc default


def chain(width, **kw):
    return AnalysisRequest.chain("LPAA 1", width, **kw)


def dist(width, kind="med"):
    return AnalysisRequest.distribution("LPAA 1", width, kind=kind)


def zoo(width, kind="med"):
    return AnalysisRequest.zoo(f"aca1:{width}:4", kind=kind)


def multiop(operands, width):
    return AnalysisRequest.for_multiop([[0.5] * width] * operands, width)


def row(case_id, request, expected, budget=None, samples=None,
        simulate=False, reason=""):
    return pytest.param(request, budget, samples, simulate,
                        expected, reason, id=case_id)


ROWS = [
    # Analytical defaults: the cheapest exact engine is final.
    row("chain-w8", chain(8), ("recursive", None, None, None)),
    row("chain-w128", chain(128), ("recursive", None, None, None)),
    row("chain-w1024", chain(1024), ("recursive", None, None, None)),
    row("hybrid-w8", AnalysisRequest.chain(["LPAA 6"] * 4 + ["LPAA 1"] * 4),
        ("recursive", None, None, None)),
    row("trace-w8", chain(8, keep_trace=True),
        ("recursive", None, None, None)),
    row("joints-w4",
        chain(4, joints=[JointBitDistribution.identical(0.5)] * 4),
        ("correlated", None, None, None)),
    row("gear", AnalysisRequest.zoo("gear:16:4:4"),
        ("zoo-dp", None, None, None)),
    row("deadline-never-degrades-a-final-rung", chain(64),
        ("recursive", None, None, None), budget=RunBudget(deadline_s=1e-9)),

    # Chain simulation: exhaustive -> chunked -> montecarlo.
    row("sim-w4-exhaustive", chain(4), ("exhaustive", None, None, 1 << 9),
        simulate=True),
    row("sim-w12-chunked", chain(12),
        ("chunked-exhaustive", "exhaustive", None, 1 << 25), simulate=True),
    row("sim-w17-past-width-limit", chain(17),
        ("montecarlo", "chunked-exhaustive", MC, None), simulate=True),
    row("sim-max-cases", chain(8),
        ("montecarlo", "chunked-exhaustive", MC, 1 << 17),
        budget=RunBudget(max_cases=1_000), simulate=True,
        reason="max_cases"),
    row("sim-deadline", chain(14),
        ("montecarlo", "chunked-exhaustive", MC, 1 << 29),
        budget=RunBudget(deadline_s=0.001), simulate=True,
        reason="deadline"),
    row("sim-max-samples", chain(20),
        ("montecarlo", "chunked-exhaustive", 5_000, None),
        budget=RunBudget(max_samples=5_000), simulate=True),
    row("sim-samples-clamped", chain(20),
        ("montecarlo", "chunked-exhaustive", 1_000, None),
        budget=RunBudget(max_samples=1_000), samples=5_000, simulate=True),
    row("sim-deadline-serial", chain(10),
        ("montecarlo", "chunked-exhaustive", MC, 1 << 21),
        budget=RunBudget(deadline_s=0.15), simulate=True),
    row("sim-w16-deadline", chain(16),
        ("montecarlo", "chunked-exhaustive", MC, 1 << 33),
        budget=RunBudget(deadline_s=0.01), simulate=True,
        reason="deadline"),
    row("sim-joints-refused-everywhere",
        chain(4, joints=[JointBitDistribution.identical(0.5)] * 4),
        ("montecarlo", "chunked-exhaustive", MC, None), simulate=True),

    # Error-magnitude kinds: dp -> dp-truncated -> mc.
    row("med-w16-exact", dist(16), ("distribution-dp", None, None, None)),
    row("med-w17-truncated", dist(17),
        ("distribution-dp-truncated", "distribution-dp", None, None),
        reason="support guard"),
    row("med-w48-mc", dist(48),
        ("distribution-mc", "distribution-dp-truncated", DIST_MC, None)),
    row("wce-w8", dist(8, "wce"), ("distribution-dp", None, None, None)),
    row("wce-w32", dist(32, "wce"), ("distribution-dp", None, None, None)),
    row("wce-w64", dist(64, "wce"), ("distribution-dp", None, None, None)),
    row("wce-w128-never-degrades", dist(128, "wce"),
        ("distribution-dp", None, None, None),
        budget=RunBudget(deadline_s=1e-9)),
    row("mred-w13-skips-truncated", dist(13, "mred"),
        ("distribution-mc", "distribution-dp", DIST_MC, None)),
    row("med-w16-half-second", dist(16),
        ("distribution-dp", None, None, None),
        budget=RunBudget(deadline_s=0.5)),
    row("error-distribution-w16-half-second",
        dist(16, "error_distribution"),
        ("distribution-dp", None, None, None),
        budget=RunBudget(deadline_s=0.5)),
    row("med-w30-tight-deadline", dist(30),
        ("distribution-mc", "distribution-dp-truncated", DIST_MC, None),
        budget=RunBudget(deadline_s=1e-9), reason="deadline"),
    row("med-w48-max-samples", dist(48),
        ("distribution-mc", "distribution-dp-truncated", 1_234, None),
        budget=RunBudget(max_samples=1_234)),
    row("med-sim", dist(8), ("distribution-mc", None, 5_000, None),
        samples=5_000, simulate=True),
    row("med-sim-max-samples", dist(8),
        ("distribution-mc", None, 1_000, None),
        budget=RunBudget(max_samples=1_000), simulate=True),

    # Zoo (windowed block) kinds: the same shape over the zoo-* rungs.
    row("zoo-chain-w40", zoo(40, "chain"), ("zoo-dp", None, None, None)),
    row("zoo-wce-w40", zoo(40, "wce"), ("zoo-dp", None, None, None)),
    row("zoo-med-w8", zoo(8), ("zoo-dp", None, None, None)),
    row("zoo-med-w20-truncated", zoo(20),
        ("zoo-dp-truncated", "zoo-dp", None, None), reason="support guard"),
    row("zoo-mred-w16-skips-truncated", zoo(16, "mred"),
        ("zoo-mc", "zoo-dp", DIST_MC, None)),
    row("zoo-med-w40-mc", zoo(40),
        ("zoo-mc", "zoo-dp-truncated", DIST_MC, None)),
    row("zoo-med-w16-tight-deadline", zoo(16),
        ("zoo-mc", "zoo-dp-truncated", DIST_MC, None),
        budget=RunBudget(deadline_s=1e-9)),
    row("zoo-sim-max-samples", zoo(8, "chain"),
        ("zoo-mc", None, 1_000, None),
        budget=RunBudget(max_samples=1_000), simulate=True),

    # Multi-operand: no analytical engine, so the exact enumerator heads.
    row("multiop-2x4-exact", multiop(2, 4),
        ("multiop-exact", None, None, 1 << 8)),
    row("multiop-4x4-exact", multiop(4, 4),
        ("multiop-exact", None, None, 1 << 16)),
    row("multiop-4x16-mc", multiop(4, 16),
        ("multiop-mc", "multiop-exact", DIST_MC, 1 << 64)),
    row("multiop-4x8-max-samples", multiop(4, 8),
        ("multiop-mc", "multiop-exact", 1_000, 1 << 32),
        budget=RunBudget(max_samples=1_000)),
    row("multiop-max-cases", multiop(2, 8),
        ("multiop-mc", "multiop-exact", DIST_MC, 1 << 16),
        budget=RunBudget(max_cases=1_000), reason="max_cases"),
    row("multiop-deadline", multiop(3, 7),
        ("multiop-mc", "multiop-exact", DIST_MC, 1 << 21),
        budget=RunBudget(deadline_s=0.001), reason="deadline"),
]


@pytest.mark.parametrize(
    "request_, budget, samples, simulate, expected, reason", ROWS)
def test_decision_table(request_, budget, samples, simulate, expected,
                        reason):
    decision = select_engine(request_, budget, samples, simulate=simulate)
    assert (decision.engine, decision.degraded_from, decision.samples,
            decision.estimated_cases) == expected
    assert reason in decision.reason


def test_forcing_an_unregistered_engine_raises():
    with pytest.raises(AnalysisError, match="unknown engine "
                       "'parallel-exhaustive'"):
        engine.run(chain(8), engine="parallel-exhaustive")


class TestHeads:
    def test_transfer_never_heads_a_chain(self):
        for width in (4, 8, 100, 101, 128, 256, 4096):
            assert select_engine(chain(width)).engine == "recursive"
        assert select_engine(chain(8, keep_trace=True)).engine \
            == "recursive"
        assert select_engine(chain(8), simulate=True).engine \
            == "exhaustive"

    @pytest.mark.parametrize("request_", [multiop(2, 4)])
    def test_simulate_refuses_other_kinds(self, request_):
        with pytest.raises(AnalysisError, match="chain requests only"):
            select_engine(request_, simulate=True)


class TestBudgetOnEveryRung:
    """The budget caps what the chosen engine actually draws."""

    CAP = RunBudget(max_samples=1_000)

    def test_distribution_simulation_sample_cap(self):
        result = engine.run("LPAA 1", 8, kind="med", simulate=True,
                            budget=self.CAP)
        assert result.engine == "distribution-mc"
        assert result.samples == 1_000

    def test_degraded_distribution_sample_cap(self):
        result = engine.run("LPAA 1", 40, kind="med", samples=5_000,
                            budget=self.CAP)
        assert result.engine == "distribution-mc"
        assert result.samples == 1_000

    def test_zoo_simulation_sample_cap(self):
        result = engine.run(zoo(8, "chain"), simulate=True, budget=self.CAP)
        assert result.engine == "zoo-mc"
        assert result.samples == 1_000

    def test_multiop_sample_cap(self):
        result = engine.run(multiop(4, 8), budget=self.CAP)
        assert result.engine == "multiop-mc"
        assert result.samples == 1_000

    def test_multiop_max_cases_degrades(self):
        result = engine.run(multiop(2, 8),
                            budget=RunBudget(max_cases=1_000,
                                             max_samples=2_000))
        assert result.engine == "multiop-mc"
        assert result.degraded_from == "multiop-exact"
        assert result.samples == 2_000
