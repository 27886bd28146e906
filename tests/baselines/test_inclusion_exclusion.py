"""Tests for the inclusion-exclusion baseline (must agree with recursion)."""

import pytest

from repro.baselines.inclusion_exclusion import (
    chain_inclusion_exclusion as inclusion_exclusion,
)
from repro.baselines.inclusion_exclusion import (
    single_stage_error_probabilities,
    stage_error_event_probability,
)
from repro.core.exceptions import AnalysisError
from repro.core.recursive import analyze_chain, resolve_chain
from repro.core.truth_table import ACCURATE


class TestAgreementWithRecursion:
    """IE and the recursion compute the same quantity; only cost differs."""

    @pytest.mark.parametrize("width", [1, 2, 4, 7])
    def test_uniform_chains(self, lpaa_cell, width):
        report = inclusion_exclusion(lpaa_cell, width, 0.3, 0.6, 0.5)
        recursive = analyze_chain(lpaa_cell, width, 0.3, 0.6, 0.5).p_error
        assert report.p_error == pytest.approx(float(recursive), abs=1e-9)

    def test_hybrid_chain(self):
        chain = ["LPAA 6", "LPAA 1", "LPAA 7", "LPAA 4"]
        report = inclusion_exclusion(chain, p_a=0.2, p_b=0.8)
        recursive = analyze_chain(chain, None, 0.2, 0.8, 0.5).p_error
        assert report.p_error == pytest.approx(float(recursive), abs=1e-9)

    def test_per_bit_probabilities(self):
        p_a = [0.1, 0.9, 0.5, 0.3, 0.7]
        p_b = [0.6, 0.2, 0.8, 0.4, 0.5]
        report = inclusion_exclusion("LPAA 3", 5, p_a, p_b, 0.25)
        recursive = analyze_chain("LPAA 3", 5, p_a, p_b, 0.25).p_error
        assert report.p_error == pytest.approx(float(recursive), abs=1e-9)

    def test_accurate_adder_zero_error(self):
        report = inclusion_exclusion(ACCURATE, 6)
        assert report.p_error == pytest.approx(0.0, abs=1e-12)


class TestTermAccounting:
    def test_terms_evaluated_is_2_pow_n_minus_1(self):
        report = inclusion_exclusion("LPAA 1", 6)
        assert report.terms_evaluated == 2 ** 6 - 1
        assert report.width == 6

    def test_width_guard(self):
        with pytest.raises(AnalysisError, match="refusing beyond 20"):
            inclusion_exclusion("LPAA 1", 21)

    def test_p_success_complements(self):
        report = inclusion_exclusion("LPAA 5", 3)
        assert report.p_success == pytest.approx(1 - report.p_error)


class TestEventProbabilities:
    def test_single_event_equals_marginal(self, lpaa_cell):
        cells = resolve_chain(lpaa_cell, 4)
        marginals = single_stage_error_probabilities(lpaa_cell, 4, 0.4, 0.4, 0.4)
        for i in range(4):
            joint = stage_error_event_probability(
                cells, frozenset({i}), [0.4] * 4, [0.4] * 4, 0.4
            )
            assert joint == pytest.approx(marginals[i])

    def test_empty_subset_is_total_mass(self, lpaa_cell):
        cells = resolve_chain(lpaa_cell, 3)
        p = stage_error_event_probability(cells, frozenset(), [0.5] * 3,
                                          [0.5] * 3, 0.5)
        assert p == pytest.approx(1.0)

    def test_joint_probability_is_smaller_than_marginals(self, lpaa_cell):
        cells = resolve_chain(lpaa_cell, 4)
        p_joint = stage_error_event_probability(
            cells, frozenset({0, 3}), [0.5] * 4, [0.5] * 4, 0.5
        )
        p0 = stage_error_event_probability(cells, frozenset({0}), [0.5] * 4,
                                           [0.5] * 4, 0.5)
        p3 = stage_error_event_probability(cells, frozenset({3}), [0.5] * 4,
                                           [0.5] * 4, 0.5)
        assert p_joint <= min(p0, p3) + 1e-12

    def test_plain_sum_of_marginals_overcounts(self):
        # Challenge 2 of paper §3: naively adding the per-stage error
        # probabilities duplicates mass and overshoots the true P(E).
        width = 8
        marginals = single_stage_error_probabilities("LPAA 1", width,
                                                     0.5, 0.5, 0.5)
        naive = sum(marginals)
        true = float(analyze_chain("LPAA 1", width, 0.5, 0.5, 0.5).p_error)
        assert naive > true
