"""Tests for repro.core.masking -- exactness of the paper's recursion.

These tests pin the semantic claim in DESIGN.md: for all seven paper
LPAAs the recursion's P(Error) equals the true word-level error
probability (no error masking), verified both through the structural
reachability search and by exhaustive functional enumeration.
"""

import itertools
import random

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


# -- the memoised state-set walk against the per-state reference walk -------

def _reference_transitions(table, state):
    """One stage of the per-state walk, evaluated cell call by cell call."""
    ca, ce, erred = state
    successors = set()
    for a in (0, 1):
        for b in (0, 1):
            sum_approx, ca_next = table.evaluate(a, b, ca)
            sum_exact, ce_next = ACCURATE.evaluate(a, b, ce)
            if sum_approx != sum_exact:
                continue
            stage_ok = table.evaluate(a, b, ca) == ACCURATE.evaluate(a, b, ca)
            successors.add((ca_next, ce_next, erred or not stage_ok))
    return successors


def _reference_step(table, states):
    return {succ for state in states
            for succ in _reference_transitions(table, state)}


def _reference_chain_is_exact(cells):
    states = {(0, 0, False), (1, 1, False)}
    for table in cells:
        states = _reference_step(table, states)
        if not states:
            return True
    return not any(ca == ce and erred for ca, ce, erred in states)


def _reference_can_mask(table):
    seen = set()
    states = {(0, 0, False), (1, 1, False)}
    while True:
        states = _reference_step(table, states)
        if any(ca == ce and erred for ca, ce, erred in states):
            return True
        frozen = frozenset(states)
        if frozen in seen or not states:
            return False
        seen.add(frozen)


_CELLS = tuple(PAPER_LPAAS) + (ACCURATE,)


class TestMemoisedWalkMatchesReference:
    def test_every_chain_up_to_width_4(self):
        verdicts = []
        for width in range(1, 5):
            for chain in itertools.product(_CELLS, repeat=width):
                expected = _reference_chain_is_exact(chain)
                assert chain_is_exact(list(chain)) == expected, (
                    [t.name for t in chain])
                verdicts.append(expected)
        assert len(verdicts) == 8 + 8 ** 2 + 8 ** 3 + 8 ** 4
        # Hybrids of exact cells can still mask: both verdicts occur.
        assert True in verdicts and False in verdicts

    def test_seeded_random_hybrids_up_to_width_64(self):
        rng = random.Random(28)
        verdicts = set()
        for _ in range(300):
            chain = [rng.choice(_CELLS) for _ in range(rng.randint(1, 64))]
            expected = _reference_chain_is_exact(chain)
            assert chain_is_exact(chain) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("cell", _CELLS, ids=lambda t: t.name)
    def test_masking_analysis_reports_are_unchanged(self, cell):
        report = masking_analysis(cell)
        assert report.cell_name == cell.name
        assert report.can_mask_at_some_width == _reference_can_mask(cell)
        assert report.silent_divergence_cases == tuple(
            case for case in cell.error_cases()
            if not case.sum_wrong and case.cout_wrong)
