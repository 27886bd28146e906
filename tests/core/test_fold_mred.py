"""The linear-time MRED fold.

``fold_mred`` returns a bracket ``[lo, hi]`` on ``E[|D| / max(S, 1)]``
from one backward pass over an output-difference table.  The bracket is
certified in exact arithmetic; its float evaluation rounds, so every
containment check allows ``SLACK`` relative (a few ulps).  References:
an exact rational enumeration through the bit-true models at dyadic p,
the registered enumeration oracle, and the test-local joint
``(D, S)`` law (:mod:`tests.core.joint_law`) summed with ``math.fsum``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from repro import engine
from repro.core.adder_zoo import (
    named_zoo,
    parse_adder,
    windowed_add_array,
    windowed_table,
)
from repro.core.exceptions import AnalysisError
from repro.core import magnitude
from repro.core.magnitude import chain_table, fold_mred, pair_table
from repro.engine import AnalysisRequest
from repro.simulation.functional import ripple_add_array

from .joint_law import joint_mred

LPAA = [f"LPAA {i}" for i in range(1, 8)]

#: Float rounding allowed around the certified bracket, relative.
SLACK = 4e-15


def _contains(bracket, value) -> bool:
    lo, hi = bracket
    return lo - SLACK * abs(value) <= value <= hi + SLACK * abs(value)


def _width(bracket) -> float:
    lo, hi = bracket
    return (hi - lo) / hi if hi else hi - lo


def _windowed(width):
    return [adder for adder in named_zoo(width)
            if adder.representation == "windowed"
            and not adder.build().is_exact]


# -- exact rational enumeration at dyadic p ------------------------------

def _weights(quarters, width):
    """Integer weight of every ``width``-bit value when bit i is 1 with
    probability ``quarters[i] / 4``."""
    values = np.arange(1 << width)
    out = np.ones(1 << width, dtype=np.int64)
    for i, q in enumerate(quarters):
        out *= np.where((values >> i) & 1, q, 4 - q)
    return out


def _exact_mred(approx_of, width, qa, qb, qc=None):
    """MRED as a Fraction: every operand pair (and carry-in) through the
    bit-true model *approx_of*, integer weights summed per exact sum."""
    a, b = np.meshgrid(np.arange(1 << width), np.arange(1 << width),
                       indexing="ij")
    a, b = a.ravel(), b.ravel()
    pair = np.outer(_weights(qa, width), _weights(qb, width)).ravel()
    totals = np.zeros(1 << (width + 1), dtype=np.int64)
    carries = [(0, 1)] if qc is None else [(0, 4 - qc), (1, qc)]
    for cin, wc in carries:
        exact = a + b + cin
        error = np.abs(approx_of(a, b, cin) - exact)
        np.add.at(totals, exact, error * pair * wc)
    scale = 4 ** (2 * width + (qc is not None))
    return sum(Fraction(int(t), max(s, 1) * scale)
               for s, t in enumerate(totals.tolist()) if t)


def _fraction_contains(bracket, value: Fraction) -> bool:
    lo, hi = (Fraction(x) for x in bracket)
    slack = Fraction(SLACK) * value
    return lo - slack <= value <= hi + slack


class TestExactAtDyadicP:
    @pytest.mark.parametrize("cell", LPAA)
    @pytest.mark.parametrize("width", [1, 3, 6, 8])
    def test_chains(self, cell, width):
        rng = random.Random(f"{cell}{width}")
        qa = [rng.randint(0, 4) for _ in range(width)]
        qb = [rng.randint(0, 4) for _ in range(width)]
        qc = rng.randint(0, 4)
        want = _exact_mred(
            lambda a, b, cin: ripple_add_array(cell, a, b, cin, width),
            width, qa, qb, qc)
        got = fold_mred(pair_table(cell, width, [q / 4 for q in qa],
                                   [q / 4 for q in qb], qc / 4))
        assert _fraction_contains(got, want)

    @pytest.mark.parametrize("width", [4, 8])
    def test_windowed_blocks(self, width):
        rng = random.Random(width)
        for adder in _windowed(width):
            spec = adder.build()
            qa = [rng.randint(0, 4) for _ in range(width)]
            qb = [rng.randint(0, 4) for _ in range(width)]
            want = _exact_mred(
                lambda a, b, _: windowed_add_array(spec, a, b),
                width, qa, qb)
            got = fold_mred(windowed_table(spec, [q / 4 for q in qa],
                                           [q / 4 for q in qb]))
            assert _fraction_contains(got, want), adder.config_string


class TestAgainstTheOracle:
    @pytest.mark.parametrize("p_cin", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("width", [2, 5, 8])
    def test_pair_table_matches_distribution_exhaustive(self, width, p_cin):
        # The pair table's start states carry exact value 0: bit 0's sum
        # bit already counts the carry-in, so nothing is counted twice.
        rng = random.Random(width)
        for cell in LPAA:
            args = (cell, width, [rng.random() for _ in range(width)],
                    [rng.random() for _ in range(width)], p_cin)
            table = pair_table(*args)
            assert all(v == 0 for _, _, v in table.start)
            oracle = engine.run(AnalysisRequest.distribution(
                *args, kind="mred"), engine="distribution-exhaustive")
            assert _contains(fold_mred(table), oracle.mred), cell


class TestAgainstTheJointLaw:
    """Random profiles at widths up to 12 against the test-local joint
    law, whose support (and cost) grows with ``2^(2N)``: the chains
    with the widest supports stop at width 10."""

    @pytest.mark.parametrize("width, cells", [
        (8, LPAA), (10, LPAA[:3] + LPAA[5:]), (12, ["LPAA 2", "LPAA 7"]),
    ])
    def test_chains(self, width, cells):
        rng = random.Random(width)
        for cell in cells:
            args = (cell, width, [rng.random() for _ in range(width)],
                    [rng.random() for _ in range(width)], rng.random())
            want = joint_mred(chain_table(*args))
            assert _contains(fold_mred(pair_table(*args)), want), cell

    @pytest.mark.parametrize("width", [8, 10, 12])
    def test_windowed_blocks(self, width):
        rng = random.Random(width)
        for adder in _windowed(width):
            table = windowed_table(
                adder.build(), [rng.random() for _ in range(width)],
                [rng.random() for _ in range(width)])
            assert _contains(fold_mred(table), joint_mred(table)), \
                adder.config_string


def _profiles(rng, width):
    """Jittered operand profiles in [0.02, 0.98], as the benchmark
    workloads draw them."""
    shapes = (lambda x: 0.5, lambda x: 0.5 - 0.45 * x,
              lambda x: 0.1 + 0.8 * x, lambda x: 0.8)
    out = []
    for _ in range(2):
        shape = rng.choice(shapes)
        out.append([round(min(0.98, max(0.02, shape(i / max(1, width - 1))
                                        + rng.uniform(-0.05, 0.05))), 6)
                    for i in range(width)])
    return out


class TestWideAndStable:
    @pytest.mark.parametrize("width", [32, 62, 64])
    def test_head_bits_do_not_move_the_answer(self, width, monkeypatch):
        rng = random.Random(width)
        tables = [pair_table(cell, width, *_profiles(rng, width),
                             rng.random()) for cell in LPAA]
        tables += [windowed_table(parse_adder(config).build(),
                                  *_profiles(rng, width))
                   for config in (f"aca1:{width}:4", f"eta:{width}:2",
                                  f"loa:{width}:8")
                   if parse_adder(config).representation == "windowed"]
        narrows = [fold_mred(table) for table in tables]
        # 10 head bits instead of MRED_HEAD_BITS (8).
        monkeypatch.setattr(magnitude, "_MRED_SERIES", magnitude._mred_series(
            10, magnitude.MRED_TERMS))
        wides = [fold_mred(table) for table in tables]
        assert wides != narrows
        for table, narrow, wide in zip(tables, narrows, wides):
            assert _width(narrow) <= 1e-13 and _width(wide) <= 1e-13
            assert math.isclose(sum(narrow) / 2, sum(wide) / 2,
                                rel_tol=5e-14), table.label

    @pytest.mark.parametrize("cell", ["LPAA 3", "LPAA 4", "LPAA 5"])
    def test_width_12_frontier_answers_exactly(self, cell):
        # The cells with the widest (D, S) support at width 12.
        rng = random.Random(cell)
        for _ in range(5):
            request = AnalysisRequest.distribution(
                cell, 12, *_profiles(rng, 12), round(rng.uniform(0.1, 0.9), 6),
                kind="mred")
            result = engine.run(request)
            assert (result.engine, result.exact) == ("distribution-dp", True)
            assert type(result.exact) is bool and type(result.mred) is float
            assert _width(fold_mred(pair_table(
                cell, 12, request.p_a, request.p_b, request.p_cin))) <= 1e-12


class TestEdges:
    @pytest.mark.parametrize("cell", LPAA + ["accurate"])
    def test_deterministic_bits_give_the_one_path(self, cell):
        # p in {0, 1}: one operand pair, MRED = |D| / max(S, 1) exactly.
        rng = random.Random(cell)
        for width in (1, 5, 12, 40):
            bits = [[rng.randint(0, 1) for _ in range(width)]
                    for _ in range(2)]
            cin = rng.randint(0, 1)
            a, b = (sum(bit << i for i, bit in enumerate(v)) for v in bits)
            approx = int(ripple_add_array(cell, np.array([a]), np.array([b]),
                                          cin, width)[0])
            want = abs(approx - (a + b + cin)) / max(a + b + cin, 1)
            got = fold_mred(pair_table(cell, width, *map(list, bits), cin))
            assert _contains(got, want), width

    def test_an_error_free_adder_brackets_zero(self):
        assert fold_mred(pair_table("accurate", 16, 0.3, 0.7, 0.5)) \
            == (0.0, 0.0)
        spec = parse_adder("axppa-ks:16:4").build()
        assert spec.is_exact
        assert fold_mred(windowed_table(spec, 0.4, 0.6)) == (0.0, 0.0)

    def test_returns_python_floats(self):
        lo, hi = fold_mred(pair_table("LPAA 3", 20, 0.3, 0.6, 0.5))
        assert type(lo) is float and type(hi) is float and lo <= hi


class TestGuard:
    def test_a_chain_table_is_refused(self):
        # Its v is a + b (up to 2) and its start value is the carry-in.
        with pytest.raises(AnalysisError, match="fold_mred"):
            fold_mred(chain_table("LPAA 1", 8, 0.3, 0.6, 0.5))
