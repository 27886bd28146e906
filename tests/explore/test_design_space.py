"""Unit tests for repro.explore.design_space."""

import pytest

from repro.circuits.power import PowerModel
from repro.core.exceptions import ExplorationError
from repro.core.recursive import analyze_chain
from repro.explore.design_space import (
    best_cell_per_probability,
    sweep_design_space,
    useful_width_limit,
)


class TestSweep:
    def test_point_values_match_recursion(self):
        points = sweep_design_space(["LPAA 1", "LPAA 6"], [2, 4], [0.1, 0.9])
        assert len(points) == 2 * 2 * 2
        for point in points:
            expected = float(
                analyze_chain(
                    point.cell_name, point.width,
                    point.p_input, point.p_input, point.p_input,
                ).p_error
            )
            assert point.p_error == pytest.approx(expected, abs=1e-12)

    def test_power_model_attaches_costs(self):
        model = PowerModel()
        points = sweep_design_space(["LPAA 3"], [4], [0.5], power_model=model)
        (point,) = points
        assert point.power_nw == pytest.approx(
            model.chain_power_nw("LPAA 3", 4, 0.5, 0.5, 0.5)
        )
        assert point.area_ge == pytest.approx(model.chain_area_ge("LPAA 3", 4))

    def test_without_power_model_costs_are_none(self):
        (point,) = sweep_design_space(["LPAA 3"], [4], [0.5])
        assert point.power_nw is None and point.area_ge is None

    def test_as_dict_round_trip(self):
        (point,) = sweep_design_space(["LPAA 2"], [3], [0.25])
        d = point.as_dict()
        assert d["cell"] == "LPAA 2" and d["width"] == 3

    def test_validation(self):
        with pytest.raises(ExplorationError):
            sweep_design_space([], [4], [0.5])
        with pytest.raises(ExplorationError):
            sweep_design_space(["LPAA 1"], [0], [0.5])
        with pytest.raises(ExplorationError):
            sweep_design_space(["LPAA 1"], [4], [1.5])


class TestPaperReadings:
    """The Fig. 5 qualitative claims, via the sweep API."""

    def test_lpaa7_wins_low_probability(self):
        points = sweep_design_space(
            [f"LPAA {i}" for i in range(1, 8)], [8], [0.1]
        )
        best = best_cell_per_probability(points, width=8)
        assert best[0.1].cell_name == "LPAA 7"

    def test_lpaa1_wins_high_probability(self):
        points = sweep_design_space(
            [f"LPAA {i}" for i in range(1, 8)], [8], [0.9]
        )
        best = best_cell_per_probability(points, width=8)
        assert best[0.9].cell_name == "LPAA 1"

    def test_lpaa6_is_the_four_season_adder(self):
        # The paper's "Four Season Adder" reading: LPAA 6 is top-2 at
        # both probability extremes (where the specialists LPAA 1 and
        # LPAA 7 respectively collapse) and has the best average rank
        # across low/equal/high probabilities.
        cells = [f"LPAA {i}" for i in range(1, 8)]
        total_error = {name: 0.0 for name in cells}
        for p in (0.1, 0.5, 0.9):
            points = sweep_design_space(cells, [8], [p])
            ranked = sorted(points, key=lambda pt: pt.p_error)
            for pt in points:
                total_error[pt.cell_name] += pt.p_error
            if p in (0.1, 0.9):
                top2 = [pt.cell_name for pt in ranked[:2]]
                assert "LPAA 6" in top2, f"not top-2 at p={p}: {top2}"
        best_average = min(total_error, key=total_error.get)
        assert best_average == "LPAA 6", total_error

    def test_no_cell_useful_beyond_ten_bits_at_half(self):
        # Paper §5: "none of the LPAA is useful beyond 10-bits cascading"
        # for equally probable inputs (P(E) > 0.5).
        for i in range(1, 8):
            limit = useful_width_limit(f"LPAA {i}", p=0.5, threshold=0.5)
            assert limit is not None and limit <= 11

    def test_useful_width_limit_none_for_accurate(self):
        assert useful_width_limit("accurate", p=0.5) is None
