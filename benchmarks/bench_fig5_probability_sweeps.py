"""Figure 5: P(Succ)/P(Error) vs adder width for all seven LPAAs under
(a) equally probable, (b) low-probability and (c) high-probability
inputs.

Regenerates the three curve families with the vectorised engine and
asserts every qualitative reading the paper draws from them:

* (a) LPAA 1 and LPAA 7 coincide at p = 0.5;
* (a) no cell stays useful beyond ~10 bits (P(E) > 0.5);
* (b) LPAA 7 is the best cell at low input probability;
* (c) LPAA 1 is the best cell at high input probability;
* (b,c) LPAA 1/LPAA 7 swap roles symmetrically;
* LPAA 6 is top-2 at both extremes and best on average
  (the "Four Season Adder").
"""

from __future__ import annotations

import numpy as np

from repro import engine
from repro.core.adders import PAPER_LPAAS
from repro.reporting import ascii_table

from conftest import emit

MAX_WIDTH = 16
LOW, EQUAL, HIGH = 0.1, 0.5, 0.9


def _curves(p: float) -> dict:
    return {
        cell.name: engine.error_curves(cell, MAX_WIDTH, p, p_cin=p)
        for cell in PAPER_LPAAS
    }


def _table(curves: dict, label: str) -> str:
    widths = [1, 2, 4, 6, 8, 10, 12, 16]
    rows = [
        [name, *[float(curve[n - 1]) for n in widths]]
        for name, curve in curves.items()
    ]
    return ascii_table(
        ["Cell", *[f"N={n}" for n in widths]],
        rows, digits=4,
        title=f"Fig. 5{label}: P(Error) vs width",
    )


def test_fig5a_equally_probable(benchmark):
    curves = _curves(EQUAL)
    emit(_table(curves, f"(a) p = {EQUAL}"))
    # LPAA 1 == LPAA 7 at p = 0.5 (the paper's observation).
    assert np.allclose(curves["LPAA 1"], curves["LPAA 7"], atol=1e-12)
    # "none of the LPAA is useful beyond 10-bits cascading".
    for name, curve in curves.items():
        assert curve[10] > 0.5, f"{name} still useful at 11 bits?"
    benchmark(lambda: _curves(EQUAL))


def test_fig5b_low_probability(benchmark):
    curves = _curves(LOW)
    emit(_table(curves, f"(b) p = {LOW}"))
    final = {name: float(curve[-1]) for name, curve in curves.items()}
    ranked = sorted(final, key=final.get)
    assert ranked[0] == "LPAA 7"           # best at low p
    assert "LPAA 6" in ranked[:2]          # Four Season runner-up
    assert final["LPAA 1"] > final["LPAA 7"]  # the specialist collapse
    benchmark(lambda: _curves(LOW))


def test_fig5c_high_probability(benchmark):
    curves = _curves(HIGH)
    emit(_table(curves, f"(c) p = {HIGH}"))
    final = {name: float(curve[-1]) for name, curve in curves.items()}
    ranked = sorted(final, key=final.get)
    assert ranked[0] == "LPAA 1"           # best at high p
    assert "LPAA 6" in ranked[:2]
    assert final["LPAA 7"] > final["LPAA 1"]
    benchmark(lambda: _curves(HIGH))


def test_fig5_symmetry_and_four_season(benchmark):
    low = _curves(LOW)
    high = _curves(HIGH)
    # LPAA 1 at high p mirrors LPAA 7 at low p exactly (their truth
    # tables are 0/1-symmetric images of one another).
    assert np.allclose(low["LPAA 7"], high["LPAA 1"], atol=1e-12)
    assert np.allclose(low["LPAA 1"], high["LPAA 7"], atol=1e-12)
    # LPAA 6 has the lowest mean error across the three regimes.
    equal = _curves(EQUAL)
    mean_error = {
        name: float(low[name][-1] + equal[name][-1] + high[name][-1]) / 3
        for name in low
    }
    assert min(mean_error, key=mean_error.get) == "LPAA 6", mean_error
    emit("Fig. 5 qualitative checks passed: LPAA1/7 symmetry, "
         "Four-Season LPAA 6, 10-bit usefulness limit.")
    benchmark(lambda: (_curves(LOW), _curves(HIGH)))
