"""Unit tests for repro.core.sum_analysis (marginal and joint tracking)."""

import itertools
import math
import random

import numpy as np
import pytest

from repro.core.adders import LPAA6, PAPER_LPAAS
from repro.core.sum_analysis import (
    bit_error_probabilities,
    carry_profile,
    joint_carry_profile,
    sum_bit_probabilities,
)
from repro.core.truth_table import ACCURATE


def _enumerate_reference(cell, width, p_a, p_b, p_cin):
    """Brute-force marginals by weighted enumeration of all inputs."""
    carry_one = [0.0] * (width + 1)
    sum_one = [0.0] * width
    bit_err = [0.0] * width
    cout_err = 0.0
    for bits in itertools.product((0, 1), repeat=2 * width + 1):
        a_bits, b_bits, cin = bits[:width], bits[width:2 * width], bits[-1]
        w = p_cin if cin else 1 - p_cin
        for i in range(width):
            w *= p_a[i] if a_bits[i] else 1 - p_a[i]
            w *= p_b[i] if b_bits[i] else 1 - p_b[i]
        if w == 0.0:
            continue
        c_approx, c_exact = cin, cin
        carry_one[0] += w * cin
        for i in range(width):
            s_ap, c_ap = cell.evaluate(a_bits[i], b_bits[i], c_approx)
            s_ex, c_ex = ACCURATE.evaluate(a_bits[i], b_bits[i], c_exact)
            sum_one[i] += w * s_ap
            if s_ap != s_ex:
                bit_err[i] += w
            c_approx, c_exact = c_ap, c_ex
            carry_one[i + 1] += w * c_approx
        if c_approx != c_exact:
            cout_err += w
    return carry_one, sum_one, bit_err, cout_err


@pytest.fixture(scope="module")
def reference():
    width = 4
    p_a = [0.2, 0.7, 0.5, 0.9]
    p_b = [0.4, 0.1, 0.8, 0.3]
    p_cin = 0.6
    return {
        "width": width, "p_a": p_a, "p_b": p_b, "p_cin": p_cin,
    }


class TestCarryProfile:
    def test_matches_enumeration(self, lpaa_cell, reference):
        ref, _, _, _ = _enumerate_reference(
            lpaa_cell, reference["width"], reference["p_a"],
            reference["p_b"], reference["p_cin"],
        )
        got = carry_profile(lpaa_cell, reference["width"], reference["p_a"],
                            reference["p_b"], reference["p_cin"])
        assert len(got) == reference["width"] + 1
        for g, r in zip(got, ref):
            assert g == pytest.approx(r, abs=1e-12)

    def test_first_entry_is_carry_in(self):
        profile = carry_profile("LPAA 3", 3, 0.5, 0.5, 0.123)
        assert profile[0] == pytest.approx(0.123)

    def test_accurate_adder_fixed_point_at_half(self):
        # For p = 0.5 the exact carry chain stays at P(c) = 0.5.
        profile = carry_profile(ACCURATE, 10, 0.5, 0.5, 0.5)
        assert all(p == pytest.approx(0.5) for p in profile)


class TestSumBits:
    def test_matches_enumeration(self, lpaa_cell, reference):
        _, ref, _, _ = _enumerate_reference(
            lpaa_cell, reference["width"], reference["p_a"],
            reference["p_b"], reference["p_cin"],
        )
        got = sum_bit_probabilities(
            lpaa_cell, reference["width"], reference["p_a"],
            reference["p_b"], reference["p_cin"],
        )
        for g, r in zip(got, ref):
            assert g == pytest.approx(r, abs=1e-12)

    def test_accurate_adder_balanced_inputs(self):
        got = sum_bit_probabilities(ACCURATE, 6, 0.5, 0.5, 0.5)
        assert all(p == pytest.approx(0.5) for p in got)


class TestJointProfile:
    def test_mass_is_conserved(self, lpaa_cell):
        states = joint_carry_profile(lpaa_cell, 8, 0.3, 0.6, 0.5)
        assert len(states) == 9
        for state in states:
            assert state.total() == pytest.approx(1.0, abs=1e-12)

    def test_initial_state_is_converged(self):
        states = joint_carry_profile("LPAA 1", 2, 0.5, 0.5, 0.25)
        assert states[0].p_diverged == 0.0
        assert states[0].p11 == pytest.approx(0.25)
        assert states[0].p00 == pytest.approx(0.75)

    def test_accurate_adder_never_diverges(self):
        states = joint_carry_profile(ACCURATE, 12, 0.37, 0.64, 0.5)
        assert all(s.p_diverged == pytest.approx(0.0) for s in states)

    def test_marginals_match_carry_profiles(self, lpaa_cell, reference):
        states = joint_carry_profile(
            lpaa_cell, reference["width"], reference["p_a"],
            reference["p_b"], reference["p_cin"],
        )
        approx_marginal = carry_profile(
            lpaa_cell, reference["width"], reference["p_a"],
            reference["p_b"], reference["p_cin"],
        )
        exact_marginal = carry_profile(
            ACCURATE, reference["width"], reference["p_a"],
            reference["p_b"], reference["p_cin"],
        )
        for state, pa_, pe_ in zip(states, approx_marginal, exact_marginal):
            assert state.p_approx_one == pytest.approx(float(pa_), abs=1e-12)
            assert state.p_exact_one == pytest.approx(float(pe_), abs=1e-12)


class TestBitErrors:
    def test_matches_enumeration(self, lpaa_cell, reference):
        _, _, ref_bits, ref_cout = _enumerate_reference(
            lpaa_cell, reference["width"], reference["p_a"],
            reference["p_b"], reference["p_cin"],
        )
        bits, cout = bit_error_probabilities(
            lpaa_cell, reference["width"], reference["p_a"],
            reference["p_b"], reference["p_cin"],
        )
        for g, r in zip(bits, ref_bits):
            assert g == pytest.approx(r, abs=1e-12)
        assert cout == pytest.approx(ref_cout, abs=1e-12)

    def test_lpaa6_lsb_errors_only_in_carry(self):
        # LPAA 6's error cases keep the sum correct, so the stage-0 sum
        # bit (which sees a correct carry-in) can never be wrong.
        bits, cout = bit_error_probabilities(LPAA6, 4, 0.5, 0.5, 0.5)
        assert bits[0] == pytest.approx(0.0)
        assert cout > 0.0

    def test_accurate_adder_zero_everywhere(self):
        bits, cout = bit_error_probabilities(ACCURATE, 5, 0.2, 0.9, 0.4)
        assert all(b == pytest.approx(0.0) for b in bits)
        assert cout == pytest.approx(0.0)


# -- frozen copies of the hand-written pair DPs the table fold replaced ----


def _frozen_joint_carry_profile(cells, p_a, p_b, p_cin):
    joint = np.zeros((2, 2))
    joint[0][0] = 1.0 - p_cin
    joint[1][1] = p_cin
    states = [(joint[0, 0], joint[0, 1], joint[1, 0], joint[1, 1])]
    for i, table in enumerate(cells):
        nxt = np.zeros((2, 2))
        for ca in (0, 1):
            for ce in (0, 1):
                mass = joint[ca, ce]
                if mass == 0.0:
                    continue
                for a in (0, 1):
                    wa = p_a[i] if a else 1.0 - p_a[i]
                    if wa == 0.0:
                        continue
                    for b in (0, 1):
                        wb = p_b[i] if b else 1.0 - p_b[i]
                        if wb == 0.0:
                            continue
                        _, ca_next = table.evaluate(a, b, ca)
                        _, ce_next = ACCURATE.evaluate(a, b, ce)
                        nxt[ca_next, ce_next] += mass * wa * wb
        joint = nxt
        states.append((joint[0, 0], joint[0, 1], joint[1, 0], joint[1, 1]))
    return states


def _frozen_bit_error_probabilities(cells, p_a, p_b, p_cin):
    joint = np.zeros((2, 2))
    joint[0][0] = 1.0 - p_cin
    joint[1][1] = p_cin
    errors = []
    for i, table in enumerate(cells):
        nxt = np.zeros((2, 2))
        mismatch = 0.0
        for ca in (0, 1):
            for ce in (0, 1):
                mass = joint[ca, ce]
                if mass == 0.0:
                    continue
                for a in (0, 1):
                    wa = p_a[i] if a else 1.0 - p_a[i]
                    for b in (0, 1):
                        wb = p_b[i] if b else 1.0 - p_b[i]
                        w = mass * wa * wb
                        if w == 0.0:
                            continue
                        sa, ca_next = table.evaluate(a, b, ca)
                        se, ce_next = ACCURATE.evaluate(a, b, ce)
                        if sa != se:
                            mismatch += w
                        nxt[ca_next, ce_next] += w
        errors.append(mismatch)
        joint = nxt
    return errors, float(joint[0, 1] + joint[1, 0])


def _cases(draw):
    """``(cells, p_a, p_b, p_cin)`` for uniform chains of every paper
    cell and random hybrids, widths 1-16, probabilities from *draw*."""
    rng = random.Random(22)
    cells = [ACCURATE] + list(PAPER_LPAAS)
    cases = []
    for width in range(1, 17):
        for chain in ([cells[width % len(cells)]] * width,
                      [rng.choice(cells) for _ in range(width)]):
            cases.append((chain, [draw(rng) for _ in range(width)],
                          [draw(rng) for _ in range(width)], draw(rng)))
    return cases


def _fold_values(cells, p_a, p_b, p_cin):
    states = joint_carry_profile(cells, None, p_a, p_b, p_cin)
    errors, carry_error = bit_error_probabilities(cells, None, p_a, p_b,
                                                  p_cin)
    return [value for state in states
            for value in (state.p00, state.p01, state.p10, state.p11)
            ] + errors + [carry_error]


def _frozen_values(cells, p_a, p_b, p_cin):
    states = _frozen_joint_carry_profile(cells, p_a, p_b, p_cin)
    errors, carry_error = _frozen_bit_error_probabilities(cells, p_a, p_b,
                                                          p_cin)
    return [value for state in states for value in state
            ] + errors + [carry_error]


DYADIC = (0.0, 1.0, 0.5, 0.25, 0.75, 0.125, 0.375, 0.9375)


class TestPairFoldMatchesFrozenLoops:
    """The pair-table fold against frozen copies of the loops it
    replaced: bit-identical at dyadic p (p in {0, 1} included).  At
    other p the loops multiplied ``mass * wa * wb`` and the table
    ``mass * (wa * wb)``; the one-ulp-scale difference per stage
    compounds along the chain, so the bound is 4 ulp per stage
    (measured over 30 random profiles: at most 2 ulp per stage and 12
    in all)."""

    @pytest.mark.parametrize("case", _cases(lambda rng: rng.choice(DYADIC)),
                             ids=lambda case: f"w{len(case[0])}")
    def test_bit_identical_at_dyadic_probabilities(self, case):
        assert _fold_values(*case) == _frozen_values(*case)

    @pytest.mark.parametrize("case", _cases(lambda rng: rng.random()),
                             ids=lambda case: f"w{len(case[0])}")
    def test_within_four_ulp_per_stage_elsewhere(self, case):
        bound = 4 * len(case[0])
        for got, want in zip(_fold_values(*case), _frozen_values(*case)):
            assert abs(got - want) <= bound * math.ulp(want)
