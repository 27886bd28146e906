"""Tests for the correlated-operand generalisation of the recursion."""

import itertools

import pytest

from repro.core.correlated import (
    JointBitDistribution,
    analyze_chain_correlated,
    self_addition_error,
)
from repro.core.exceptions import ProbabilityError
from repro.core.recursive import analyze_chain
from repro.simulation.functional import ripple_add


def _exhaustive_correlated(cell, joints, p_cin, width):
    """Brute-force P(error) with per-stage joint operand laws."""
    p_error = 0.0
    for bits in itertools.product(range(4), repeat=width):
        for cin in (0, 1):
            weight = p_cin if cin else 1 - p_cin
            a = b = 0
            for i, ab in enumerate(bits):
                a_bit, b_bit = ab >> 1, ab & 1
                weight *= joints[i].weight(a_bit, b_bit)
                a |= a_bit << i
                b |= b_bit << i
            if weight == 0.0:
                continue
            if ripple_add(cell, a, b, cin, width) != a + b + cin:
                p_error += weight
    return p_error


class TestJointDistribution:
    def test_independent_factors(self):
        joint = JointBitDistribution.independent(0.3, 0.6)
        assert joint.p11 == pytest.approx(0.18)
        assert joint.correlation_free

    def test_identical_and_complementary(self):
        same = JointBitDistribution.identical(0.25)
        assert same.weight(1, 1) == 0.25 and same.weight(1, 0) == 0.0
        assert not same.correlation_free
        anti = JointBitDistribution.complementary(0.25)
        assert anti.weight(1, 0) == 0.25 and anti.weight(1, 1) == 0.0

    def test_normalisation_enforced(self):
        with pytest.raises(ProbabilityError, match="sums to"):
            JointBitDistribution(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ProbabilityError, match="out of"):
            JointBitDistribution(1.5, -0.5, 0.0, 0.0)


class TestAgainstOracle:
    def test_matches_enumeration_mixed_laws(self, lpaa_cell):
        joints = [
            JointBitDistribution.independent(0.2, 0.7),
            JointBitDistribution.identical(0.4),
            JointBitDistribution.complementary(0.6),
        ]
        got = 1.0 - analyze_chain_correlated(lpaa_cell, joints, p_cin=0.3)[0]
        ref = _exhaustive_correlated(lpaa_cell, joints, 0.3, 3)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_independent_laws_reduce_to_standard_engine(self, lpaa_cell):
        p_a, p_b = [0.1, 0.8, 0.5, 0.3], [0.6, 0.2, 0.9, 0.4]
        joints = [
            JointBitDistribution.independent(pa, pb)
            for pa, pb in zip(p_a, p_b)
        ]
        got = 1.0 - analyze_chain_correlated(lpaa_cell, joints,
                                           p_cin=0.25)[0]
        ref = float(analyze_chain(lpaa_cell, 4, p_a, p_b, 0.25).p_error)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_self_addition_matches_functional(self, lpaa_cell):
        # exact check of a + a over all values at p = 0.5
        width = 4
        errors = sum(
            1 for a in range(1 << width)
            if ripple_add(lpaa_cell, a, a, 0, width) != 2 * a
        )
        got = self_addition_error(lpaa_cell, width, p=0.5, p_cin=0.0)
        assert got == pytest.approx(errors / (1 << width), abs=1e-12)

    def test_independence_assumption_can_mislead(self):
        # For a + a on LPAA 1, pretending the operands are independent
        # mis-estimates the true error; the correlated analysis nails it.
        width = 6
        truth = self_addition_error("LPAA 1", width, p=0.5, p_cin=0.0)
        independent = float(
            analyze_chain("LPAA 1", width, 0.5, 0.5, 0.0).p_error
        )
        assert truth != pytest.approx(independent, abs=1e-3)


class TestApi:
    def test_trace_shape(self):
        joints = [JointBitDistribution.independent(0.5, 0.5)] * 3
        p_success, trace = analyze_chain_correlated("LPAA 2", joints)
        assert len(trace) == 3
        assert trace[0] == (0.5, 0.5)
        assert 0.0 <= p_success <= 1.0

    def test_stage_count_mismatch(self):
        joints = [JointBitDistribution.independent(0.5, 0.5)] * 2
        with pytest.raises(ProbabilityError, match="per stage"):
            analyze_chain_correlated("LPAA 2", joints, width=3)
