"""Tests for the word-level output-value distribution."""

import itertools

import pytest

from repro.core.exceptions import AnalysisError
from repro.core.magnitude import error_moments
from repro.core.sum_analysis import sum_bit_probabilities
from repro.core.truth_table import ACCURATE
from repro.core.value_distribution import (
    output_bias,
    output_mean,
    output_value_pmf,
    total_variation_distance,
)
from repro.simulation.functional import ripple_add


def _enumerate_pmf(cell, width, p_a, p_b, p_cin):
    pmf = {}
    for a, b in itertools.product(range(1 << width), repeat=2):
        for cin in (0, 1):
            w = p_cin if cin else 1 - p_cin
            for i in range(width):
                w *= p_a[i] if (a >> i) & 1 else 1 - p_a[i]
                w *= p_b[i] if (b >> i) & 1 else 1 - p_b[i]
            if w == 0.0:
                continue
            value = ripple_add(cell, a, b, cin, width)
            pmf[value] = pmf.get(value, 0.0) + w
    return pmf


class TestPmf:
    def test_matches_enumeration(self, lpaa_cell):
        p_a = [0.2, 0.7, 0.5]
        p_b = [0.4, 0.1, 0.8]
        got = output_value_pmf(lpaa_cell, 3, p_a, p_b, 0.6)
        ref = _enumerate_pmf(lpaa_cell, 3, p_a, p_b, 0.6)
        assert set(got) == set(ref)
        for value in ref:
            assert got[value] == pytest.approx(ref[value], abs=1e-12)

    def test_sums_to_one(self, any_cell):
        pmf = output_value_pmf(any_cell, 5, 0.3, 0.6, 0.5)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)

    def test_accurate_adder_gives_sum_distribution(self):
        # at p = 0.5 every (a, b, cin) is equally likely: the output law
        # is the convolution of two uniform 2-bit laws plus a fair bit.
        pmf = output_value_pmf(ACCURATE, 2, 0.5, 0.5, 0.5)
        ref = _enumerate_pmf(ACCURATE, 2, [0.5] * 2, [0.5] * 2, 0.5)
        for value, prob in ref.items():
            assert pmf[value] == pytest.approx(prob)

    def test_support_bound(self, lpaa_cell):
        pmf = output_value_pmf(lpaa_cell, 4, 0.5, 0.5, 0.5)
        assert all(0 <= v < (1 << 5) for v in pmf)

    def test_width_guard(self):
        with pytest.raises(AnalysisError, match="max_width"):
            output_value_pmf("LPAA 1", 24)


class TestMoments:
    def test_mean_matches_pmf(self, lpaa_cell):
        pmf = output_value_pmf(lpaa_cell, 4, 0.3, 0.8, 0.2)
        mean_pmf = sum(v * p for v, p in pmf.items())
        mean_linear = output_mean(lpaa_cell, 4, 0.3, 0.8, 0.2)
        assert mean_linear == pytest.approx(mean_pmf, abs=1e-10)

    def test_mean_scales_to_wide_adders(self):
        mean = output_mean("LPAA 6", 64, 0.5, 0.5, 0.5)
        # exact adder's mean at p = 0.5 is (2^64 - 1) + 0.5; approximate
        # deviates but stays in the representable range.
        assert 0 < mean < float(1 << 65)

    def test_bias_matches_error_mean(self, lpaa_cell):
        # E[approx] - E[exact] must equal the error-DP's E[D].
        bias = output_bias(lpaa_cell, 6, 0.4, 0.6, 0.5)
        moments = error_moments(lpaa_cell, 6, 0.4, 0.6, 0.5)
        assert bias == pytest.approx(moments.mean, abs=1e-9)

    def test_accurate_adder_has_zero_bias(self):
        assert output_bias(ACCURATE, 8, 0.3, 0.9, 0.1) == pytest.approx(0.0)

    def test_mean_consistent_with_bit_marginals(self, lpaa_cell):
        sums = sum_bit_probabilities(lpaa_cell, 3, 0.5, 0.5, 0.5)
        mean = output_mean(lpaa_cell, 3, 0.5, 0.5, 0.5)
        partial = sum(float(p) * (1 << i) for i, p in enumerate(sums))
        assert mean >= partial  # the carry term only adds


class TestTotalVariation:
    def test_identical_laws_are_zero(self):
        pmf = output_value_pmf("LPAA 4", 3)
        assert total_variation_distance(pmf, pmf) == pytest.approx(0.0)

    def test_tv_upper_bounds_error_probability_complement(self, lpaa_cell):
        # TV between approx and exact output laws can never exceed the
        # error probability (coupling argument: they agree whenever the
        # adder is correct).
        from repro.core.recursive import analyze_chain

        approx = output_value_pmf(lpaa_cell, 4, 0.3, 0.3, 0.3)
        exact = output_value_pmf(ACCURATE, 4, 0.3, 0.3, 0.3)
        tv = total_variation_distance(approx, exact)
        p_err = float(analyze_chain(lpaa_cell, 4, 0.3, 0.3, 0.3).p_error)
        assert tv <= p_err + 1e-12

    def test_disjoint_supports_are_one(self):
        assert total_variation_distance({0: 1.0}, {1: 1.0}) == pytest.approx(1.0)
