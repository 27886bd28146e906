"""Tests for GeAr error detection and configurable correction."""

import numpy as np
import pytest

from repro import engine
from repro.core.adder_zoo import from_gear
from repro.core.exceptions import AnalysisError
from repro.engine import AnalysisRequest
from repro.gear.analysis import gear_subadder_error_probabilities
from repro.gear.config import GeArConfig
from repro.gear.correction import (
    corrected_error_probability,
    detect_errors,
    error_count_distribution,
    expected_corrections,
    gear_add_corrected,
)
from repro.gear.functional import gear_add, gear_error_positions

CFG = GeArConfig(8, 2, 2)


def zoo_p_error(config, p_a, p_b):
    request = AnalysisRequest.zoo(from_gear(config), p_a, p_b)
    return engine.run(request).p_error


class TestDetection:
    def test_detection_equals_block_comparison(self):
        # The hardware condition (carry & all-propagate) must flag
        # exactly the blocks whose output differs from the exact sum.
        for a in range(0, 256, 3):
            for b in range(0, 256, 7):
                assert detect_errors(CFG, a, b) == gear_error_positions(
                    CFG, a, b
                )

    def test_no_errors_for_carry_free_addition(self):
        assert detect_errors(CFG, 0b01010101, 0b00000000) == []

    def test_known_error_case(self):
        # generate at bit 0, propagate through bits 1..3: sub-adder 1's
        # prediction window [2,3] all-propagates with carry -> flagged.
        a, b = 0b00001111, 0b00000001
        assert 1 in detect_errors(CFG, a, b)

    def test_operand_validation(self):
        from repro.core.exceptions import GeArConfigError

        with pytest.raises(GeArConfigError):
            detect_errors(CFG, 256, 0)


class TestCorrection:
    def test_full_correction_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a, b = int(rng.integers(256)), int(rng.integers(256))
            result, fixes = gear_add_corrected(CFG, a, b)
            assert result == a + b
            assert fixes == len(detect_errors(CFG, a, b))

    def test_zero_budget_is_plain_gear(self):
        for a in range(0, 256, 5):
            for b in range(0, 256, 11):
                result, fixes = gear_add_corrected(CFG, a, b, budget=0)
                assert result == gear_add(CFG, a, b)
                assert fixes == 0

    def test_partial_budget_fixes_lsb_first(self):
        # find an input with two erroneous blocks
        found = None
        for a in range(256):
            for b in range(256):
                if len(detect_errors(CFG, a, b)) >= 2:
                    found = (a, b)
                    break
            if found:
                break
        assert found is not None
        a, b = found
        flagged = detect_errors(CFG, a, b)
        result, fixes = gear_add_corrected(CFG, a, b, budget=1)
        assert fixes == 1
        # the corrected (lowest) block now matches the exact sum...
        sub = CFG.subadders()[flagged[0]]
        width = sub.high - sub.result_low + 1
        mask = ((1 << width) - 1)
        assert (result >> sub.result_low) & mask == \
            ((a + b) >> sub.result_low) & mask
        # ...but the result as a whole is still wrong.
        assert result != a + b

    def test_negative_budget_rejected(self):
        with pytest.raises(AnalysisError):
            gear_add_corrected(CFG, 1, 1, budget=-1)


class TestCountDistribution:
    def test_pmf_sums_to_one(self):
        pmf = error_count_distribution(CFG, 0.5, 0.5)
        assert sum(pmf) == pytest.approx(1.0, abs=1e-12)
        assert len(pmf) == CFG.num_subadders  # counts 0..k-1

    def test_zero_count_matches_success_probability(self):
        pmf = error_count_distribution(CFG, 0.3, 0.8)
        assert pmf[0] == pytest.approx(
            1.0 - zoo_p_error(CFG, 0.3, 0.8), abs=1e-12
        )

    def test_matches_exhaustive_count_histogram(self):
        ref = np.zeros(CFG.num_subadders)
        for a in range(256):
            for b in range(256):
                ref[len(detect_errors(CFG, a, b))] += 1
        ref /= ref.sum()
        pmf = error_count_distribution(CFG, 0.5, 0.5)
        for got, expected in zip(pmf, ref):
            assert got == pytest.approx(expected, abs=1e-12)

    def test_expected_corrections_equals_marginal_sum(self):
        expected = expected_corrections(CFG, 0.4, 0.7)
        marginals = gear_subadder_error_probabilities(CFG, 0.4, 0.7)
        assert expected == pytest.approx(sum(marginals), abs=1e-12)

    def test_truncated_tail_bin(self):
        cfg = GeArConfig(12, 2, 2)  # 5 sub-adders, 4 events
        pmf = error_count_distribution(cfg, 0.5, 0.5, max_count=2)
        assert len(pmf) == 3
        assert sum(pmf) == pytest.approx(1.0, abs=1e-12)

    def test_negative_max_count_rejected(self):
        with pytest.raises(AnalysisError, match="max_count"):
            error_count_distribution(CFG, max_count=-1)


class TestResidualError:
    def test_budget_zero_is_plain_error_probability(self):
        assert corrected_error_probability(CFG, 0, 0.5, 0.5) == pytest.approx(
            zoo_p_error(CFG, 0.5, 0.5), abs=1e-12
        )

    def test_full_budget_is_zero_error(self):
        budget = CFG.num_subadders - 1
        assert corrected_error_probability(CFG, budget, 0.5, 0.5) == \
            pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_budget(self):
        cfg = GeArConfig(16, 2, 2)
        residuals = [
            corrected_error_probability(cfg, budget, 0.5, 0.5)
            for budget in range(cfg.num_subadders)
        ]
        assert residuals == sorted(residuals, reverse=True)

    def test_matches_functional_monte_carlo(self):
        rng = np.random.default_rng(0)
        budget = 1
        wrong = 0
        trials = 40_000
        a = rng.integers(0, 256, trials)
        b = rng.integers(0, 256, trials)
        for j in range(trials):
            result, _ = gear_add_corrected(CFG, int(a[j]), int(b[j]),
                                           budget=budget)
            if result != int(a[j]) + int(b[j]):
                wrong += 1
        analytical = corrected_error_probability(CFG, budget, 0.5, 0.5)
        assert wrong / trials == pytest.approx(analytical, abs=5e-3)

    def test_negative_budget_rejected(self):
        with pytest.raises(AnalysisError):
            corrected_error_probability(CFG, -1)
