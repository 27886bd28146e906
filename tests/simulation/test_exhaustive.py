"""Unit tests for repro.simulation.exhaustive (exact oracle)."""

import pytest

from repro.core.exceptions import AnalysisError
from repro.core.magnitude import error_pmf
from repro.core.recursive import analyze_chain
from repro.core.truth_table import ACCURATE
from repro.simulation.exhaustive import (
    exhaustive_error_count,
    exhaustive_error_pmf,
    exhaustive_error_probability,
)


class TestErrorProbability:
    def test_matches_analytical_equiprobable(self, lpaa_cell):
        # The paper's "100 percent match (up to any decimal precision)".
        for width in (1, 2, 5):
            exact = exhaustive_error_probability(lpaa_cell, width)
            analytical = analyze_chain(lpaa_cell, width, 0.5, 0.5, 0.5).p_error
            assert exact == pytest.approx(float(analytical), abs=1e-12)

    def test_matches_analytical_weighted(self, lpaa_cell):
        # Stronger than the paper: the weighted enumeration is exact for
        # arbitrary probabilities, not just p=0.5.
        p_a = [0.15, 0.9, 0.42, 0.68]
        p_b = [0.33, 0.05, 0.77, 0.5]
        exact = exhaustive_error_probability(lpaa_cell, 4, p_a, p_b, 0.22)
        analytical = analyze_chain(lpaa_cell, 4, p_a, p_b, 0.22).p_error
        assert exact == pytest.approx(float(analytical), abs=1e-12)

    def test_accurate_adder_never_errs(self):
        assert exhaustive_error_probability(ACCURATE, 4) == 0.0

    def test_hybrid_chain_without_masking(self):
        # Every divergence of these cells corrupts a sum bit, so the
        # recursion stays exact for the mixed chain.
        chain = ["LPAA 2", "LPAA 1", "LPAA 7"]
        from repro.core.masking import chain_is_exact

        assert chain_is_exact(chain)
        exact = exhaustive_error_probability(chain, p_a=0.3, p_b=0.3, p_cin=0.3)
        analytical = analyze_chain(chain, None, 0.3, 0.3, 0.3).p_error
        assert exact == pytest.approx(float(analytical), abs=1e-12)

    def test_hybrid_chain_with_masking_is_upper_bounded(self):
        # LPAA 6's silent carry drop at (1,1,0) followed by LPAA 1's
        # (0,1,0) row re-converges the carry chains without touching a
        # sum bit, so this mix CAN mask: the recursion must then be a
        # strict upper bound on the functional error probability.
        chain = ["LPAA 6", "LPAA 1", "LPAA 7"]
        from repro.core.masking import chain_is_exact

        assert not chain_is_exact(chain)
        functional = exhaustive_error_probability(chain, p_a=0.3, p_b=0.3,
                                                  p_cin=0.3)
        analytical = float(analyze_chain(chain, None, 0.3, 0.3, 0.3).p_error)
        assert analytical > functional

    def test_width_guard(self):
        with pytest.raises(AnalysisError, match="2\\^"):
            exhaustive_error_probability("LPAA 1", 17)


class TestErrorCount:
    def test_total_is_2_pow_2n_plus_1(self):
        errors, total = exhaustive_error_count("LPAA 1", 3)
        assert total == 2 ** 7

    def test_count_ratio_equals_probability(self, lpaa_cell):
        errors, total = exhaustive_error_count(lpaa_cell, 4)
        prob = exhaustive_error_probability(lpaa_cell, 4)
        assert errors / total == pytest.approx(prob, abs=1e-12)

    def test_single_stage_counts_error_rows(self, lpaa_cell):
        # At width 1 every truth-table row appears exactly once; the
        # error count must equal the cell's error-case count.
        errors, total = exhaustive_error_count(lpaa_cell, 1)
        assert total == 8
        assert errors == lpaa_cell.num_error_cases()


class TestErrorPmf:
    def test_matches_dp_pmf(self, lpaa_cell):
        p_a = [0.2, 0.8, 0.5]
        ref = error_pmf(lpaa_cell, 3, p_a, 0.4, 0.6)
        got = exhaustive_error_pmf(lpaa_cell, 3, p_a, 0.4, 0.6)
        assert set(got) == set(ref)
        for delta in ref:
            assert got[delta] == pytest.approx(ref[delta], abs=1e-12)

    def test_pmf_sums_to_one(self, lpaa_cell):
        pmf = exhaustive_error_pmf(lpaa_cell, 2)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
