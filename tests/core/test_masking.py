"""Tests for repro.core.masking -- exactness of the paper's recursion.

These tests pin the semantic claim in DESIGN.md: for all seven paper
LPAAs the recursion's P(Error) equals the true word-level error
probability (no error masking), verified both through the structural
reachability search and by exhaustive functional enumeration.
"""

import itertools

import pytest

from repro.core.adders import PAPER_LPAAS
from repro.core.masking import chain_is_exact, masking_analysis, masking_summary
from repro.core.recursive import analyze_chain
from repro.core.truth_table import ACCURATE, FullAdderTruthTable
from repro.simulation.functional import ripple_add


class TestPaperCellsAreExact:
    def test_structural_search_finds_no_masking(self, lpaa_cell):
        report = masking_analysis(lpaa_cell)
        assert report.recursion_is_always_exact
        assert not report.can_mask_at_some_width

    def test_chain_is_exact_for_all_cells_and_widths(self, lpaa_cell):
        for width in (1, 2, 4, 8):
            assert chain_is_exact(lpaa_cell, width)

    def test_exhaustive_cross_check(self, lpaa_cell):
        # Count functional word-level errors over all equiprobable
        # inputs and compare with the analytical P(Error).
        width = 4
        errors = 0
        total = 0
        for a, b in itertools.product(range(1 << width), repeat=2):
            for cin in (0, 1):
                total += 1
                if ripple_add(lpaa_cell, a, b, cin, width) != a + b + cin:
                    errors += 1
        analytical = analyze_chain(lpaa_cell, width, 0.5, 0.5, 0.5).p_error
        assert errors / total == pytest.approx(float(analytical), abs=1e-12)

    def test_only_lpaa6_has_silent_divergence_cases(self):
        reports = masking_summary(list(PAPER_LPAAS))
        silent = {r.cell_name: len(r.silent_divergence_cases) for r in reports}
        assert silent == {
            "LPAA 1": 0, "LPAA 2": 0, "LPAA 3": 0, "LPAA 4": 0,
            "LPAA 5": 0, "LPAA 6": 2, "LPAA 7": 0,
        }


class TestAccurateAdder:
    def test_accurate_adder_is_trivially_exact(self):
        report = masking_analysis(ACCURATE)
        assert report.recursion_is_always_exact
        assert report.silent_divergence_cases == ()


class TestMaskingIsDetectable:
    def _masking_cell(self):
        """A synthetic cell engineered so divergence can be masked.

        Start from the accurate adder and corrupt two rows:

        * ``(0,1,1): (0,1) -> (0,0)`` -- keeps the sum correct but drops
          the carry, starting a *silent* divergence (approx 0, exact 1);
        * ``(1,0,0): (1,0) -> (0,1)`` -- under the diverged carry the
          approximate stage sees ``(1,0,0)`` and emits sum 0 while the
          exact chain sees ``(1,0,1)`` and also emits sum 0; the
          corrupted carry 1 re-converges the chains.

        Example masked input at width 3: A=0b010, B=0b001, Cin=1 adds to
        4 exactly, although stage 0 misbehaved.
        """
        rows = list(ACCURATE.rows)
        rows[3] = (0, 0)  # (0,1,1): silent carry drop
        rows[4] = (0, 1)  # (1,0,0): masks and re-converges
        return FullAdderTruthTable(rows, name="maskable")

    def test_synthetic_cell_reports_masking(self):
        cell = self._masking_cell()
        report = masking_analysis(cell)
        assert report.can_mask_at_some_width
        assert not report.recursion_is_always_exact

    def test_recursion_overestimates_error_for_masking_cell(self):
        # For the carry-blind cell the recursion's P(Error) must be a
        # strict upper bound on the true functional error rate.
        cell = self._masking_cell()
        width = 3
        errors = 0
        total = 0
        for a, b in itertools.product(range(1 << width), repeat=2):
            for cin in (0, 1):
                total += 1
                if ripple_add(cell, a, b, cin, width) != a + b + cin:
                    errors += 1
        functional = errors / total
        analytical = float(analyze_chain(cell, width, 0.5, 0.5, 0.5).p_error)
        assert analytical > functional
        assert not chain_is_exact(cell, width)

    def test_chain_is_exact_depends_on_position(self):
        cell = self._masking_cell()
        # Masking needs the divergence-starting row AND the absorbing
        # row on consecutive stages, so two maskable stages suffice...
        assert not chain_is_exact([cell, cell, ACCURATE])
        # ...but a lone maskable stage followed by accurate stages is
        # exact (an accurate sum always exposes a diverged carry), and
        # so is a maskable *final* stage (its diverged carry-out is
        # itself an output error).
        assert chain_is_exact([cell, ACCURATE, ACCURATE])
        assert chain_is_exact([ACCURATE, ACCURATE, cell])

    def test_masked_input_example(self):
        # The concrete witness from the _masking_cell docstring.
        cell = self._masking_cell()
        assert ripple_add(cell, 0b010, 0b001, 1, 3) == 0b010 + 0b001 + 1
