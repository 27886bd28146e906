"""Tests for stuck-at fault injection and statistical fault analysis."""

import pytest

from repro.circuits.cells import synthesize_cell
from repro.circuits.faults import (
    StuckAtFault,
    enumerate_faults,
    exhaustive_test_set,
    fault_coverage,
    fault_detectability,
    faulted_truth_table,
)
from repro.core.exceptions import AnalysisError
from repro.core.truth_table import ACCURATE


class TestEnumeration:
    def test_two_faults_per_net(self):
        impl = synthesize_cell("accurate")
        faults = enumerate_faults(impl.netlist)
        nets = len(impl.netlist.inputs) + impl.netlist.num_gates()
        assert len(faults) == 2 * nets
        assert StuckAtFault("a", 0) in faults
        assert StuckAtFault("sum", 1) in faults

    def test_bad_value_rejected(self):
        with pytest.raises(AnalysisError):
            StuckAtFault("a", 2)

    def test_describe(self):
        assert StuckAtFault("n_cin", 1).describe() == "n_cin/SA1"


class TestFaultedTruthTable:
    def test_stuck_input_fixes_column(self):
        # a stuck at 1: rows with a=0 behave like their a=1 twins.
        table = faulted_truth_table(ACCURATE, StuckAtFault("a", 1))
        for idx in range(8):
            twin = idx | 0b100
            assert table.rows[idx] == ACCURATE.rows[twin]

    def test_stuck_output_pins_bit(self):
        table = faulted_truth_table(ACCURATE, StuckAtFault("sum", 0))
        assert all(s == 0 for s, _ in table.rows)
        # carries untouched
        assert [c for _, c in table.rows] == [c for _, c in ACCURATE.rows]

    def test_unknown_net_rejected(self):
        with pytest.raises(AnalysisError, match="does not exist"):
            faulted_truth_table(ACCURATE, StuckAtFault("ghost", 0))

    def test_fault_turns_accurate_into_approximate(self):
        table = faulted_truth_table(ACCURATE, StuckAtFault("cin", 0))
        assert not table.is_accurate()
        assert table.num_error_cases() == 4  # all cin=1 rows break


class TestDetectability:
    def test_healthy_baseline_matches_engine(self):
        impacts = fault_detectability("LPAA 1", width=4, p_a=0.3, p_b=0.3)
        from repro.core.recursive import analyze_chain

        healthy = float(analyze_chain("LPAA 1", 4, 0.3, 0.3, 0.5).p_error)
        assert all(
            fi.p_error_healthy == pytest.approx(healthy) for fi in impacts
        )

    def test_sorted_by_impact(self):
        impacts = fault_detectability("accurate", width=4)
        deltas = [abs(fi.delta) for fi in impacts]
        assert deltas == sorted(deltas, reverse=True)

    def test_faults_on_accurate_cell_only_increase_error(self):
        impacts = fault_detectability("accurate", width=5, p_a=0.4, p_b=0.6)
        assert all(fi.delta >= -1e-12 for fi in impacts)
        assert any(fi.delta > 0.1 for fi in impacts)  # some faults hurt

    def test_faults_can_reduce_apparent_error_of_approx_cell(self):
        # Counter-intuitive but real: a stuck net can push an
        # approximate cell back TOWARDS accurate behaviour at some
        # input distribution.
        impacts = fault_detectability("LPAA 2", width=4, p_a=0.1, p_b=0.1,
                                      p_cin=0.1)
        assert any(fi.delta < 0 for fi in impacts)

    def test_restricted_fault_list(self):
        impacts = fault_detectability(
            "LPAA 1", width=3, faults=[StuckAtFault("cin", 1)]
        )
        assert len(impacts) == 1
        assert impacts[0].fault.net == "cin"


class TestCoverage:
    def test_exhaustive_vectors_cover_all_detectable_faults(self):
        impl = synthesize_cell("accurate")
        vectors = exhaustive_test_set(impl.netlist)
        assert len(vectors) == 8
        coverage, undetected = fault_coverage(impl.netlist, vectors)
        # every stuck-at on an irredundant two-level network is testable
        assert coverage == pytest.approx(1.0)
        assert undetected == []

    def test_single_vector_misses_faults(self):
        impl = synthesize_cell("accurate")
        coverage, undetected = fault_coverage(
            impl.netlist, [{"a": 0, "b": 0, "cin": 0}]
        )
        assert coverage < 1.0
        assert undetected

    def test_requires_vectors(self):
        impl = synthesize_cell("LPAA 1")
        with pytest.raises(AnalysisError):
            fault_coverage(impl.netlist, [])

    def test_exhaustive_test_set_guard(self):
        from repro.circuits.ripple import build_ripple_netlist

        netlist = build_ripple_netlist("accurate", 9)  # 19 inputs
        with pytest.raises(AnalysisError, match="refused"):
            exhaustive_test_set(netlist)
