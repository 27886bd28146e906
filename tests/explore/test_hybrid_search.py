"""Tests for the optimal hybrid search (vector DP vs brute force)."""

import random
import struct

import pytest

from repro.circuits.power import PowerModel
from repro.core.adders import PAPER_LPAAS
from repro.core.exceptions import ExplorationError
from repro.core.matrices import derive_matrices
from repro.core.truth_table import ACCURATE
from repro.explore.hybrid_search import (
    _final_vector,
    _stage_matrix,
    brute_force_hybrid,
    greedy_hybrid,
    optimal_hybrid,
)

ALL_CELLS = [f"LPAA {i}" for i in range(1, 8)]


class TestExactness:
    """The value-vector DP must equal brute force wherever the latter
    is feasible -- this is the module's core correctness claim."""

    @pytest.mark.parametrize(
        "p_a,p_b",
        [
            (0.1, 0.1),
            (0.9, 0.9),
            (0.5, 0.5),
            ([0.1, 0.2, 0.7, 0.9], [0.9, 0.5, 0.3, 0.1]),
        ],
    )
    def test_matches_brute_force_width4(self, p_a, p_b):
        opt = optimal_hybrid(ALL_CELLS, 4, p_a, p_b)
        ref = brute_force_hybrid(ALL_CELLS, 4, p_a, p_b)
        assert opt.exact
        assert opt.p_error == pytest.approx(ref.p_error, abs=1e-12)

    def test_matches_brute_force_mixed_point(self):
        p = [0.1, 0.1, 0.5, 0.9, 0.9]
        opt = optimal_hybrid(ALL_CELLS, 5, p, p)
        ref = brute_force_hybrid(ALL_CELLS, 5, p, p)
        assert opt.p_error == pytest.approx(ref.p_error, abs=1e-12)
        assert opt.chain == ref.chain

    def test_single_cell_candidate_is_trivial(self):
        opt = optimal_hybrid(["LPAA 3"], 6, 0.4, 0.4)
        assert opt.chain.is_uniform()
        assert opt.chain.width == 6


class TestKnownStructure:
    def test_low_probability_selects_lpaa7(self):
        opt = optimal_hybrid(ALL_CELLS, 6, 0.1, 0.1)
        assert set(opt.chain.cell_histogram()) == {"LPAA 7"}

    def test_high_probability_selects_lpaa1(self):
        opt = optimal_hybrid(ALL_CELLS, 6, 0.9, 0.9)
        assert set(opt.chain.cell_histogram()) == {"LPAA 1"}

    def test_split_point_selects_hybrid(self):
        # Low-probability LSBs, high-probability MSBs: the optimum mixes
        # cell types (the paper's hybrid motivation).
        p = [0.1] * 4 + [0.9] * 4
        opt = optimal_hybrid(ALL_CELLS, 8, p, p)
        assert len(opt.chain.cell_histogram()) >= 2
        # and beats every uniform choice.
        for name in ALL_CELLS:
            uniform = brute_force_hybrid([name], 8, p, p)
            assert opt.p_error <= uniform.p_error + 1e-12

    def test_wide_chain_is_fast_and_exact(self):
        opt = optimal_hybrid(ALL_CELLS, 32, 0.3, 0.3)
        assert opt.exact
        assert opt.chain.width == 32


class TestPowerTradeOff:
    def test_power_penalty_changes_choice(self):
        model = PowerModel()
        free = optimal_hybrid(ALL_CELLS, 6, 0.5, 0.5, power_model=model)
        # An extreme power weight should push towards LPAA 5 (0 nW).
        constrained = optimal_hybrid(
            ALL_CELLS, 6, 0.5, 0.5, power_weight=1.0, power_model=model
        )
        assert constrained.power_nw <= free.power_nw + 1e-9
        assert constrained.chain.cell_histogram() == {"LPAA 5": 6}

    def test_tiny_weight_preserves_error_optimum(self):
        free = optimal_hybrid(ALL_CELLS, 5, 0.2, 0.2)
        nearly_free = optimal_hybrid(ALL_CELLS, 5, 0.2, 0.2,
                                     power_weight=1e-12)
        assert nearly_free.p_error == pytest.approx(free.p_error, abs=1e-9)


class TestBaselines:
    def test_greedy_never_beats_optimal(self):
        for p in (0.1, 0.5, 0.9):
            opt = optimal_hybrid(ALL_CELLS, 6, p, p)
            greedy = greedy_hybrid(ALL_CELLS, 6, p, p)
            assert greedy.p_error >= opt.p_error - 1e-12

    def test_greedy_has_a_real_gap_somewhere(self):
        # Documented ablation: greedy is suboptimal at p = 0.1.
        opt = optimal_hybrid(ALL_CELLS, 5, 0.1, 0.1)
        greedy = greedy_hybrid(ALL_CELLS, 5, 0.1, 0.1)
        assert greedy.p_error > opt.p_error + 1e-6

    def test_brute_force_guard(self):
        with pytest.raises(ExplorationError, match="exceeds"):
            brute_force_hybrid(ALL_CELLS, 12, 0.5, 0.5)


class TestTradeoffCurve:
    def test_curve_spans_error_to_power_extremes(self):
        from repro.explore.hybrid_search import hybrid_tradeoff_curve

        model = PowerModel()
        curve = hybrid_tradeoff_curve(
            ALL_CELLS, 6, [0.0, 1e-5, 1e-3, 1.0],
            p_a=0.5, p_b=0.5, power_model=model,
        )
        assert curve  # at least the pure-error optimum
        # weight 0 end: the minimum-error design; weight 1 end: the
        # zero-power LPAA 5 chain.
        errors = [r.p_error for r in curve]
        powers = [r.power_nw for r in curve]
        assert errors == sorted(errors)           # error grows with weight
        assert powers == sorted(powers, reverse=True)  # power falls
        assert curve[-1].chain.cell_histogram() == {"LPAA 5": 6}

    def test_duplicate_chains_collapsed(self):
        from repro.explore.hybrid_search import hybrid_tradeoff_curve

        curve = hybrid_tradeoff_curve(
            ALL_CELLS, 4, [0.0, 1e-15], p_a=0.3, p_b=0.3,
        )
        assert len(curve) == 1  # negligible weights give the same chain

    def test_empty_weights_rejected(self):
        from repro.explore.hybrid_search import hybrid_tradeoff_curve

        with pytest.raises(ExplorationError):
            hybrid_tradeoff_curve(ALL_CELLS, 4, [])


class TestValidation:
    def test_bad_width(self):
        with pytest.raises(ExplorationError):
            optimal_hybrid(ALL_CELLS, 0, 0.5, 0.5)

    def test_no_cells(self):
        with pytest.raises(ExplorationError):
            optimal_hybrid([], 4, 0.5, 0.5)

    def test_negative_power_weight(self):
        with pytest.raises(ExplorationError):
            optimal_hybrid(ALL_CELLS, 4, power_weight=-1.0)


# -- frozen oracle: the per-stage transition the searches used to read ------

def _frozen_transition(table, p_a, p_b):
    """``(T, l)`` as the former stage-matrix cache built them: the four
    operand-pair weights routed by carry bit into ``T[out][in]`` (K mask
    -> row 0, M mask -> row 1) and the L functional."""
    mkl = derive_matrices(table)
    qa, qb = 1.0 - p_a, 1.0 - p_b
    pair = (qa * qb, qa * p_b, p_a * qb, p_a * p_b)
    t00 = t01 = t10 = t11 = l0 = l1 = 0.0
    for row in range(8):
        weight = pair[row >> 1]
        cin = row & 1
        if mkl.k[row]:
            if cin:
                t01 += weight
            else:
                t00 += weight
        if mkl.m[row]:
            if cin:
                t11 += weight
            else:
                t10 += weight
        if mkl.l[row]:
            if cin:
                l1 += weight
            else:
                l0 += weight
    return ((t00, t01), (t10, t11)), (l0, l1)


def _float_bits(values):
    return [struct.pack("<d", v) for v in values]


_STAGE_PROBABILITIES = (0.0, 1.0, 0.5, 1e-310, 5e-324, 2.5e-308,
                        1.0 - 2.0 ** -53)


class TestFrozenStageBits:
    """``_stage_matrix``/``_final_vector`` run the chain kernel at the
    two unit carry states; that reproduces the former cache's ``T`` and
    ``l`` bit for bit."""

    @pytest.mark.parametrize("table", [ACCURATE] + list(PAPER_LPAAS),
                             ids=["AccuFA"] + [f"LPAA{i}" for i in range(1, 8)])
    def test_matches_the_frozen_transition(self, table):
        rng = random.Random(table.name)
        points = [(a, b) for a in _STAGE_PROBABILITIES
                  for b in _STAGE_PROBABILITIES]
        points += [(rng.random(), rng.random()) for _ in range(200)]
        for p_a, p_b in points:
            (t0, t1), l = _frozen_transition(table, p_a, p_b)
            got_t = _stage_matrix(table, p_a, p_b)
            got_l = _final_vector(table, p_a, p_b)
            assert _float_bits(got_t[0] + got_t[1]) == \
                _float_bits(t0 + t1), (p_a, p_b)
            assert _float_bits(got_l) == _float_bits(l), (p_a, p_b)
            assert all(type(v) is float for v in got_t[0] + got_t[1] + got_l)
