"""Unit tests for repro.core.magnitude (error PMF and exact moments)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adders import PAPER_LPAAS
from repro.core.exceptions import AnalysisError, SupportLimitError
from repro.core.magnitude import (
    error_law,
    error_moments,
    error_pmf,
    joint_error_pmf,
    relative_error_from_joint,
    worst_case_error,
)
from repro.core.recursive import analyze_chain
from repro.core.truth_table import ACCURATE, FullAdderTruthTable


def _enumerate_pmf(cell, width, p_a, p_b, p_cin):
    """Brute-force PMF of approx - exact over all weighted inputs.

    *cell* is one cell for a uniform chain or a per-stage list."""
    cells = list(cell) if isinstance(cell, (list, tuple)) else [cell] * width
    pmf = {}
    for bits in itertools.product((0, 1), repeat=2 * width + 1):
        a_bits, b_bits, cin = bits[:width], bits[width:2 * width], bits[-1]
        w = p_cin if cin else 1 - p_cin
        for i in range(width):
            w *= p_a[i] if a_bits[i] else 1 - p_a[i]
            w *= p_b[i] if b_bits[i] else 1 - p_b[i]
        if w == 0.0:
            continue
        approx, carry = 0, cin
        for i in range(width):
            s, carry = cells[i].evaluate(a_bits[i], b_bits[i], carry)
            approx |= s << i
        approx |= carry << width
        a_val = sum(bit << i for i, bit in enumerate(a_bits))
        b_val = sum(bit << i for i, bit in enumerate(b_bits))
        delta = approx - (a_val + b_val + cin)
        pmf[delta] = pmf.get(delta, 0.0) + w
    return pmf


class TestErrorPmf:
    WIDTH = 4
    P_A = [0.2, 0.7, 0.5, 0.9]
    P_B = [0.4, 0.1, 0.8, 0.3]
    P_CIN = 0.6

    def test_matches_enumeration(self, lpaa_cell):
        ref = _enumerate_pmf(lpaa_cell, self.WIDTH, self.P_A, self.P_B, self.P_CIN)
        got = error_pmf(lpaa_cell, self.WIDTH, self.P_A, self.P_B, self.P_CIN)
        assert set(got) == {d for d, p in ref.items() if p > 0}
        for delta, prob in ref.items():
            if prob > 0:
                assert got[delta] == pytest.approx(prob, abs=1e-12)

    def test_sums_to_one(self, lpaa_cell):
        pmf = error_pmf(lpaa_cell, 6, 0.3, 0.3, 0.3)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_delta_mass_equals_success_probability(self, lpaa_cell):
        # The paper's P(Succ) must equal P(D = 0) for the paper cells
        # (they cannot mask, see repro.core.masking).
        pmf = error_pmf(lpaa_cell, 5, 0.17, 0.82, 0.5)
        p_err = analyze_chain(lpaa_cell, 5, 0.17, 0.82, 0.5).p_error
        assert 1.0 - pmf.get(0, 0.0) == pytest.approx(float(p_err), abs=1e-12)

    def test_accurate_adder_is_a_point_mass(self):
        pmf = error_pmf(ACCURATE, 10, 0.42, 0.77, 0.1)
        assert pmf == {0: pytest.approx(1.0)}

    def test_max_entries_guard(self):
        with pytest.raises(AnalysisError, match="max_entries"):
            error_pmf("LPAA 5", 12, 0.5, 0.5, 0.5, max_entries=10)

    def test_pruning_drops_small_mass_only(self):
        full = error_pmf("LPAA 5", 8, 0.5, 0.5, 0.5)
        pruned = error_pmf("LPAA 5", 8, 0.5, 0.5, 0.5, prune_below=1e-4)
        assert set(pruned) <= set(full)
        lost = sum(full.values()) - sum(pruned.values())
        assert 0 <= lost < 1e-2


# Edge probabilities the dense kernel must survive: deterministic bits
# and subnormal-scale masses whose products underflow.
_EDGE_PROBABILITIES = (0.0, 1.0, 5e-324, 1e-310, 2.5e-308, 1.0 - 2.0 ** -53)
_stage_cells = st.one_of(
    st.sampled_from([ACCURATE, *PAPER_LPAAS]),
    st.builds(FullAdderTruthTable, st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        min_size=8, max_size=8)),
)
_edge_probability = st.one_of(
    st.sampled_from(_EDGE_PROBABILITIES),
    st.floats(0.0, 1.0, allow_nan=False),
)


class TestDenseKernelAgainstEnumeration:
    """The dense two-state kernel == brute force on hybrid chains."""

    # Below this, masses built from subnormal factors may vanish in one
    # multiplication order and survive in the other.
    FLOOR = 1e-30

    @given(data=st.data(), width=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_hybrid_chains_with_edge_probabilities(self, data, width):
        cells = data.draw(st.lists(_stage_cells, min_size=width,
                                   max_size=width))
        p_a = data.draw(st.lists(_edge_probability, min_size=width,
                                 max_size=width))
        p_b = data.draw(st.lists(_edge_probability, min_size=width,
                                 max_size=width))
        p_cin = data.draw(_edge_probability)
        ref = _enumerate_pmf(cells, width, p_a, p_b, p_cin)
        got = error_pmf(cells, None, p_a, p_b, p_cin)
        assert all(isinstance(d, int) and p > 0.0 for d, p in got.items())
        assert {d for d, p in got.items() if p > self.FLOOR} == \
            {d for d, p in ref.items() if p > self.FLOOR}
        for delta in set(ref) | set(got):
            assert got.get(delta, 0.0) == pytest.approx(
                ref.get(delta, 0.0), abs=1e-12)
        # The interval DP bounds every delta with positive mass.
        worst = worst_case_error(cells, None, p_a, p_b, p_cin)
        assert all(worst.min_delta <= d <= worst.max_delta for d in got)

    def test_accurate_high_bits_keep_the_window_small_at_width_64(self):
        chain = ["LPAA 1"] * 8 + ["accurate"] * 56
        law = error_law(chain, None, 0.5, 0.5, 0.5)
        pmf = law.as_dict()
        assert len(pmf) <= law.probs.size <= 500
        # Accurate stages add no local error: D is the 8-bit chain's.
        assert pmf == pytest.approx(error_pmf("LPAA 1", 8, 0.5, 0.5, 0.5),
                                    abs=1e-15)
        assert law.wce == worst_case_error(chain).wce

    def test_deltas_stay_exact_ints_past_int64(self):
        # Only the top stage errs: every delta is a multiple of 2^63.
        chain = ["accurate"] * 63 + ["LPAA 5"]
        law = error_law(chain, None, 0.5, 0.5, 0.5)
        assert law.step == 2 ** 63
        pmf = law.as_dict()
        assert all(isinstance(d, int) and d % 2 ** 63 == 0 for d in pmf)
        worst = worst_case_error(chain)
        assert (min(pmf), max(pmf)) == (worst.min_delta, worst.max_delta)
        assert law.wce == worst.wce == 2 ** 63

    def test_guard_fires_before_the_oversized_allocation(self, monkeypatch):
        limit = 2_000_000
        sizes = []
        real_zeros = np.zeros

        def spy(shape, *args, **kwargs):
            sizes.append(int(np.prod(shape)))
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", spy)
        with pytest.raises(SupportLimitError) as info:
            error_pmf("LPAA 5", 24)
        err = info.value
        assert (err.width, err.limit) == (24, limit)
        assert err.stage < 24
        assert err.entries > limit
        assert sizes and max(sizes) <= limit


class TestErrorMoments:
    def test_matches_pmf_moments(self, lpaa_cell):
        p_a, p_b, p_cin = 0.35, 0.6, 0.5
        pmf = error_pmf(lpaa_cell, 7, p_a, p_b, p_cin)
        mom = error_moments(lpaa_cell, 7, p_a, p_b, p_cin)
        mean_ref = sum(d * p for d, p in pmf.items())
        m2_ref = sum(d * d * p for d, p in pmf.items())
        assert mom.mean == pytest.approx(mean_ref, rel=1e-10, abs=1e-10)
        assert mom.second_moment == pytest.approx(m2_ref, rel=1e-10, abs=1e-10)

    def test_scales_to_wide_adders(self):
        # 64 bits would be hopeless for enumeration; moments are O(N).
        mom = error_moments("LPAA 6", 64, 0.5, 0.5, 0.5)
        assert mom.width == 64
        assert mom.second_moment >= mom.mean ** 2 - 1e-9

    def test_accurate_adder_zero_moments(self):
        mom = error_moments(ACCURATE, 16, 0.3, 0.8, 0.9)
        assert mom.mean == pytest.approx(0.0)
        assert mom.second_moment == pytest.approx(0.0)
        assert mom.variance == pytest.approx(0.0)
        assert mom.rms == pytest.approx(0.0)

    def test_variance_never_negative(self, lpaa_cell):
        mom = error_moments(lpaa_cell, 9, 0.9, 0.9, 0.9)
        assert mom.variance >= 0.0

    def test_normalized_rms_uses_max_output(self):
        mom = error_moments("LPAA 1", 4, 0.5, 0.5, 0.5)
        assert mom.normalized_rms == pytest.approx(mom.rms / 31.0)

    def test_deterministic_inputs_reduce_to_single_case(self, lpaa_cell):
        # With 0/1 probabilities there is exactly one input vector, so
        # the PMF is a point mass and moments are its powers.
        p_a, p_b = [1, 0, 1], [1, 1, 0]
        pmf = error_pmf(lpaa_cell, 3, p_a, p_b, 0)
        assert len(pmf) == 1
        ((delta, prob),) = pmf.items()
        assert prob == pytest.approx(1.0)
        mom = error_moments(lpaa_cell, 3, p_a, p_b, 0)
        assert mom.mean == pytest.approx(delta)
        assert mom.second_moment == pytest.approx(delta * delta)

def _enumerate_joint(cell, width, p_a, p_b, p_cin):
    """Brute-force joint PMF of (approx - exact, exact) for the oracle."""
    joint = {}
    for bits in itertools.product((0, 1), repeat=2 * width + 1):
        a_bits, b_bits, cin = bits[:width], bits[width:2 * width], bits[-1]
        w = p_cin if cin else 1 - p_cin
        for i in range(width):
            w *= p_a[i] if a_bits[i] else 1 - p_a[i]
            w *= p_b[i] if b_bits[i] else 1 - p_b[i]
        if w == 0.0:
            continue
        approx, carry = 0, cin
        for i in range(width):
            s, carry = cell.evaluate(a_bits[i], b_bits[i], carry)
            approx |= s << i
        approx |= carry << width
        a_val = sum(bit << i for i, bit in enumerate(a_bits))
        b_val = sum(bit << i for i, bit in enumerate(b_bits))
        exact = a_val + b_val + cin
        key = (approx - exact, exact)
        joint[key] = joint.get(key, 0.0) + w
    return joint


class TestWorstCaseError:
    WIDTH = 5
    P_A = [0.2, 0.7, 0.5, 0.9, 0.4]
    P_B = [0.4, 0.1, 0.8, 0.3, 0.6]
    P_CIN = 0.6

    def test_matches_pmf_extremes(self, lpaa_cell):
        pmf = error_pmf(lpaa_cell, self.WIDTH, self.P_A, self.P_B, self.P_CIN)
        wce = worst_case_error(lpaa_cell, self.WIDTH, self.P_A, self.P_B,
                               self.P_CIN)
        assert wce.min_delta == min(pmf)
        assert wce.max_delta == max(pmf)
        assert wce.wce == max(abs(min(pmf)), abs(max(pmf)))

    def test_exact_big_integers_at_64_bits(self):
        # Enumeration is hopeless here; the interval DP stays exact
        # because it composes integer spans, never floats.
        wce = worst_case_error("LPAA 5", 64)
        assert wce.wce == 2 ** 63
        assert isinstance(wce.wce, int)

    def test_deterministic_bits_restrict_the_support(self, lpaa_cell):
        # With 0/1 probabilities only one input vector is reachable, so
        # min == max == the single attainable delta.
        p_a, p_b = [1, 0, 1], [1, 1, 0]
        wce = worst_case_error(lpaa_cell, 3, p_a, p_b, 0)
        ((delta, _),) = error_pmf(lpaa_cell, 3, p_a, p_b, 0).items()
        assert wce.min_delta == wce.max_delta == delta

    def test_accurate_adder_has_zero_wce(self):
        wce = worst_case_error(ACCURATE, 48)
        assert wce.min_delta == wce.max_delta == 0
        assert wce.normalized_wce == 0.0


class TestJointErrorPmf:
    WIDTH = 4
    P_A = [0.2, 0.7, 0.5, 0.9]
    P_B = [0.4, 0.1, 0.8, 0.3]
    P_CIN = 0.6

    def test_matches_enumeration(self, lpaa_cell):
        ref = _enumerate_joint(lpaa_cell, self.WIDTH, self.P_A, self.P_B,
                               self.P_CIN)
        got = joint_error_pmf(lpaa_cell, self.WIDTH, self.P_A, self.P_B,
                              self.P_CIN)
        assert set(got) == {k for k, p in ref.items() if p > 0}
        for key, prob in ref.items():
            if prob > 0:
                assert got[key] == pytest.approx(prob, abs=1e-12)

    def test_marginal_recovers_error_pmf(self, lpaa_cell):
        joint = joint_error_pmf(lpaa_cell, self.WIDTH, self.P_A, self.P_B,
                                self.P_CIN)
        marginal = {}
        for (delta, _), prob in joint.items():
            marginal[delta] = marginal.get(delta, 0.0) + prob
        pmf = error_pmf(lpaa_cell, self.WIDTH, self.P_A, self.P_B,
                        self.P_CIN)
        assert marginal == pytest.approx(pmf, abs=1e-12)

    def test_mred_matches_enumeration(self, lpaa_cell):
        ref = _enumerate_joint(lpaa_cell, self.WIDTH, self.P_A, self.P_B,
                               self.P_CIN)
        mred_ref = sum(abs(d) / max(v, 1) * p for (d, v), p in ref.items())
        joint = joint_error_pmf(lpaa_cell, self.WIDTH, self.P_A, self.P_B,
                                self.P_CIN)
        assert relative_error_from_joint(joint) == pytest.approx(
            mred_ref, abs=1e-12)

    def test_accurate_adder_mred_is_zero(self):
        joint = joint_error_pmf(ACCURATE, 6, 0.3, 0.7, 0.5)
        assert relative_error_from_joint(joint) == 0.0


class TestSupportLimitError:
    def test_error_pmf_carries_structured_context(self):
        with pytest.raises(SupportLimitError) as info:
            error_pmf("LPAA 5", 12, 0.5, 0.5, 0.5, max_entries=10)
        err = info.value
        assert err.width == 12
        assert err.limit == 10
        assert err.entries > err.limit
        assert isinstance(err.stage, int)

    def test_joint_pmf_carries_structured_context(self):
        with pytest.raises(SupportLimitError) as info:
            joint_error_pmf("LPAA 5", 10, max_entries=50)
        err = info.value
        assert err.width == 10
        assert err.limit == 50
        assert err.entries > 50

    def test_is_an_analysis_error_for_old_handlers(self):
        with pytest.raises(AnalysisError, match="max_entries"):
            error_pmf("LPAA 5", 12, max_entries=10)
