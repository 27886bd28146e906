"""Unit + golden tests for repro.core.recursive (Algorithm 1)."""

from fractions import Fraction

import pytest

from repro.core.adders import LPAA1, PAPER_LPAAS
from repro.core.exceptions import ChainLengthError, ProbabilityError
from repro.core.recursive import (
    analyze_chain,
    build_ipm,
    mask_dot,
    resolve_chain,
)
from repro.core.truth_table import ACCURATE

from ..paper_data import (
    TABLE4_CARRY_ROWS,
    TABLE4_P_A,
    TABLE4_P_B,
    TABLE4_P_CIN,
    TABLE4_P_SUCC,
    TABLE7_ANALYTICAL,
    TABLE7_P,
)


class TestTable4Golden:
    """Reproduce the paper's 4-bit LPAA 1 worked example exactly."""

    def test_final_success_probability(self):
        result = analyze_chain(
            "LPAA 1", width=4, p_a=TABLE4_P_A, p_b=TABLE4_P_B, p_cin=TABLE4_P_CIN
        )
        assert result.p_success == pytest.approx(TABLE4_P_SUCC, abs=5e-7)

    def test_per_stage_carry_probabilities(self):
        result = analyze_chain(
            "LPAA 1",
            width=4,
            p_a=TABLE4_P_A,
            p_b=TABLE4_P_B,
            p_cin=TABLE4_P_CIN,
            keep_trace=True,
        )
        for stage, (c0, c1) in enumerate(TABLE4_CARRY_ROWS):
            record = result.trace[stage]
            assert record.p_c0_next_succ == pytest.approx(c0, abs=5e-6)
            assert record.p_c1_next_succ == pytest.approx(c1, abs=5e-6)
        # Eq. 6: stage i's carry-out feeds stage i+1's carry-in.
        for stage in range(3):
            assert (
                result.trace[stage + 1].p_c1_curr_succ
                == result.trace[stage].p_c1_next_succ
            )

    def test_last_stage_has_no_carry_out(self):
        result = analyze_chain("LPAA 1", width=4, keep_trace=True)
        last = result.trace[-1]
        assert last.p_c0_next_succ is None and last.p_c1_next_succ is None
        assert last.p_success is not None


class TestTable7Golden:
    """Reproduce every 'Analyt.' entry of paper Table 7 (p = 0.1)."""

    @pytest.mark.parametrize("width", sorted(TABLE7_ANALYTICAL))
    def test_analytical_column(self, width):
        for idx, expected in enumerate(TABLE7_ANALYTICAL[width]):
            got = analyze_chain(
                PAPER_LPAAS[idx], width=width,
                p_a=TABLE7_P, p_b=TABLE7_P, p_cin=TABLE7_P,
            ).p_error
            # The paper rounds/truncates to 5 decimals (and prints
            # 0.99999 for values that round to 1.0); match to 1e-5.
            assert got == pytest.approx(expected, abs=1.1e-5), (
                f"LPAA {idx + 1} at width {width}"
            )


class TestEngineBehaviour:
    def test_accurate_adder_never_errs(self):
        for width in (1, 3, 17, 64):
            result = analyze_chain(ACCURATE, width=width, p_a=0.37,
                                   p_b=0.81, p_cin=0.25)
            assert result.p_success == pytest.approx(1.0)

    def test_single_stage_matches_direct_row_sum(self, lpaa_cell):
        # For N=1 the success probability is just the success-row mass.
        p_a, p_b, p_c = 0.3, 0.6, 0.2
        expected = 0.0
        for idx, ok in enumerate(lpaa_cell.success_rows()):
            if not ok:
                continue
            a, b, c = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
            expected += (
                (p_a if a else 1 - p_a)
                * (p_b if b else 1 - p_b)
                * (p_c if c else 1 - p_c)
            )
        got = analyze_chain(lpaa_cell, width=1, p_a=p_a, p_b=p_b,
                            p_cin=p_c).p_success
        assert got == pytest.approx(expected, abs=1e-15)

    def test_deterministic_inputs_give_zero_or_one(self, lpaa_cell):
        # With all probabilities in {0,1} the adder sees one fixed input
        # vector, so P(Succ) must be exactly 0 or 1.
        p = analyze_chain(
            lpaa_cell, width=5, p_a=[1, 0, 1, 1, 0], p_b=[0, 0, 1, 0, 1], p_cin=1
        ).p_success
        assert p in (0.0, 1.0)

    def test_survival_mass_is_non_increasing(self, lpaa_cell):
        result = analyze_chain(lpaa_cell, width=10, p_a=0.4, p_b=0.7,
                               p_cin=0.5, keep_trace=True)
        survivals = [record.survival for record in result.trace]
        for earlier, later in zip(survivals, survivals[1:]):
            assert later <= earlier + 1e-12

    def test_fraction_inputs_stay_exact(self):
        result = analyze_chain(
            "LPAA 1",
            width=4,
            p_a=[Fraction(9, 10), Fraction(1, 2), Fraction(2, 5), Fraction(4, 5)],
            p_b=[Fraction(4, 5), Fraction(7, 10), Fraction(3, 5), Fraction(9, 10)],
            p_cin=Fraction(1, 2),
        )
        assert isinstance(result.p_success, Fraction)
        assert result.p_success == Fraction(184619, 250000)  # == 0.738476
        assert result.p_error == Fraction(65381, 250000)

    def test_hybrid_chain_list_of_cells(self):
        mixed = ["LPAA 7", "LPAA 7", LPAA1, "LPAA 1"]
        result = analyze_chain(mixed, p_a=0.1, p_b=0.1, p_cin=0.1)
        assert result.width == 4
        assert result.cell_names == ("LPAA 7", "LPAA 7", "LPAA 1", "LPAA 1")
        assert not result.is_uniform()
        # Hybrid must differ from both uniform variants at this point.
        uniform7 = analyze_chain("LPAA 7", 4, 0.1, 0.1, 0.1).p_error
        uniform1 = analyze_chain("LPAA 1", 4, 0.1, 0.1, 0.1).p_error
        assert result.p_error != pytest.approx(uniform7)
        assert result.p_error != pytest.approx(uniform1)

    def test_result_metadata(self):
        result = analyze_chain("LPAA 2", width=3, p_a=[0.1, 0.2, 0.3], p_b=0.5)
        assert result.p_a == (0.1, 0.2, 0.3)
        assert result.p_b == (0.5, 0.5, 0.5)
        assert result.p_cin == 0.5
        assert result.is_uniform()
        assert result.p_error == pytest.approx(1 - result.p_success)


class TestValidation:
    def test_uniform_chain_requires_width(self):
        with pytest.raises(ChainLengthError, match="width is required"):
            analyze_chain("LPAA 1")

    def test_zero_width_rejected(self):
        with pytest.raises(ChainLengthError):
            analyze_chain("LPAA 1", width=0)

    def test_empty_cell_list_rejected(self):
        with pytest.raises(ChainLengthError):
            analyze_chain([])

    def test_width_mismatch_with_cell_list(self):
        with pytest.raises(ChainLengthError, match="does not match"):
            analyze_chain(["LPAA 1", "LPAA 2"], width=3)

    def test_probability_vector_length_checked(self):
        with pytest.raises(ProbabilityError):
            analyze_chain("LPAA 1", width=4, p_a=[0.5, 0.5])

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ProbabilityError):
            analyze_chain("LPAA 1", width=2, p_cin=1.5)


class TestBuildingBlocks:
    def test_build_ipm_sums_to_input_mass(self):
        ipm = build_ipm(0.3, 0.8, 0.6, 0.4)
        assert sum(ipm) == pytest.approx(1.0)
        # With success-conditioned carry mass < 1 the IPM total shrinks.
        ipm = build_ipm(0.3, 0.8, 0.5, 0.2)
        assert sum(ipm) == pytest.approx(0.7)

    def test_build_ipm_row_order(self):
        # Entry for (A,B,Cin)=(1,0,1) must sit at index 5 and use
        # p_a * (1-p_b) * P(C & Succ).
        ipm = build_ipm(0.9, 0.2, 0.7, 0.1)
        assert ipm[5] == pytest.approx(0.9 * 0.8 * 0.7)

    def test_mask_dot_skips_zero_entries(self):
        assert mask_dot([0.1, 0.2, 0.3], (1, 0, 1)) == pytest.approx(0.4)
        assert mask_dot([0.5] * 8, (0,) * 8) == 0

    def test_resolve_chain_uniform_and_hybrid(self):
        chain = resolve_chain("LPAA 3", 5)
        assert len(chain) == 5 and all(t.name == "LPAA 3" for t in chain)
        chain = resolve_chain([LPAA1, "accurate"], None)
        assert [t.name for t in chain] == ["LPAA 1", "AccuFA"]
