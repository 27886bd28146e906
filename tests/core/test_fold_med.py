"""The linear-time MED fold and the array-backed PMF.

``fold_med`` reads ``E|D|`` off one forward and one backward pass over
an output-difference table; it must equal the enumeration oracle at the
edges (deterministic bits, subnormal and underflowing weights, width 1)
and stay finite at the widest widths.  A table whose increments can
outweigh each other is refused with a typed error.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.adder_zoo import named_zoo, parse_adder, windowed_table
from repro.core.exceptions import AnalysisError
from repro.core.magnitude import (
    ErrorPMF,
    chain_table,
    error_law,
    fold_med,
    fold_moments,
    pair_table,
)
from repro.simulation.exhaustive import (
    exhaustive_quality,
    windowed_exhaustive_quality,
)

LPAA = [f"LPAA {i}" for i in range(1, 8)]


def _oracle_med(report) -> float:
    return math.fsum(abs(d) * p for d, p in report.pmf.items())


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)


class TestGuard:
    def test_a_chain_table_whose_errors_reach_two_is_refused(self):
        table = chain_table("LPAA 6", 8, 0.3, 0.6, 0.5)
        with pytest.raises(AnalysisError, match="fold_med"):
            fold_med(table)

    @pytest.mark.parametrize("cell", LPAA)
    def test_a_chain_table_is_refused_or_equals_the_pair_fold(self, cell):
        # The guard refuses exactly the tables whose |d| passes 1; a
        # chain whose local errors stay in {-1, 0, 1} folds correctly.
        args = (cell, 10, 0.3, 0.6, 0.7)
        table = chain_table(*args)
        incs = {row[2] for rows in table.stages for row in rows}
        if incs <= {-1, 0, 1}:
            assert _close(fold_med(table), fold_med(pair_table(*args)))
        else:
            with pytest.raises(AnalysisError):
                fold_med(table)


def _pmf_med(law) -> float:
    deltas, probs = law.support()
    return math.fsum(abs(d) * p
                     for d, p in zip(deltas.tolist(), probs.tolist()))


class TestEdgesAgainstTheOracle:
    @pytest.mark.parametrize("cell", LPAA)
    @pytest.mark.parametrize("p_a, p_b, p_cin", [
        # deterministic bits mixed with uncertain ones
        ([0.0, 1.0, 0.5, 1.0, 0.0], [1.0, 0.5, 0.0, 1.0, 0.3], 1.0),
        ([0.0] * 5, [1.0] * 5, 0.0),
        # subnormal probabilities
        ([5e-324, 0.5, 1e-310, 0.5, 5e-324], [0.5, 1e-310, 0.5, 0.7, 0.2],
         0.5),
        # row weights underflow to 0.0 (1e-200 * 1e-200)
        ([1e-200] * 5, [1e-200] * 5, 0.5),
        ([1.0 - 1e-16, 1e-200, 0.5, 1e-200, 0.9], [1e-200] * 5, 1e-200),
    ])
    def test_chains(self, cell, p_a, p_b, p_cin):
        args = (cell, 5, p_a, p_b, p_cin)
        assert _close(fold_med(pair_table(*args)),
                      _oracle_med(exhaustive_quality(*args)))

    @pytest.mark.parametrize("cell", LPAA + ["accurate"])
    @pytest.mark.parametrize("p", [0.0, 1.0, 5e-324, 0.5, 0.9])
    def test_width_one(self, cell, p):
        args = (cell, 1, p, 1.0 - p, p)
        assert _close(fold_med(pair_table(*args)),
                      _oracle_med(exhaustive_quality(*args)))

    @pytest.mark.parametrize("p_a, p_b", [
        ([0.0, 1.0, 0.5, 1.0, 0.0, 0.5], [1.0, 0.5, 0.0, 1.0, 0.3, 1.0]),
        ([5e-324, 0.5, 1e-310, 0.5, 0.5, 0.5], [0.5] * 6),
        ([1e-200] * 6, [1e-200] * 6),
    ])
    def test_windowed_blocks(self, p_a, p_b):
        for adder in named_zoo(6):
            spec = adder.build()
            if adder.representation != "windowed" or spec.is_exact:
                continue
            assert _close(
                fold_med(windowed_table(spec, p_a, p_b)),
                _oracle_med(windowed_exhaustive_quality(spec, p_a, p_b))
            ), adder.config_string


class TestWidest:
    @pytest.mark.parametrize("cell", LPAA)
    def test_width_62_is_finite_and_bounded(self, cell):
        rng = random.Random(cell)
        for p_a, p_b in (([0.5] * 62, [0.5] * 62),
                         ([rng.random() for _ in range(62)],
                          [rng.random() for _ in range(62)]),
                         ([0.98] * 62, [0.02] * 62)):
            args = (cell, 62, p_a, p_b, 0.5)
            med = fold_med(pair_table(*args))
            mean = fold_moments(chain_table(*args)).mean
            assert math.isfinite(med) and med >= 0.0
            # |E[D]| <= E|D| <= max |D| < 2^63
            assert abs(mean) <= med * (1 + 1e-9) < 2.0 ** 63

    @pytest.mark.parametrize("width", [16, 32, 62])
    @pytest.mark.parametrize("cell", LPAA)
    @pytest.mark.parametrize("approx", [1, 4])
    @pytest.mark.parametrize("p_a, p_b", [
        (0.98, 0.02), (0.999, 0.001), (0.02, 0.98)])
    def test_propagating_mismatches_match_the_pmf_fold(
        self, width, cell, approx, p_a, p_b
    ):
        # Approximate low cells under accurate high ones, with
        # p_a ~ 1 - p_b: a carry mismatch propagates nearly to the top,
        # D = 2^(j+L) - 2^(j+L-1) - ... - 2^j, while E|D| stays near 1.
        # The local errors sit in the low bits, so the PMF fold is cheap.
        chain = [cell] * approx + ["accurate"] * (width - approx)
        args = (chain, None, p_a, p_b, 0.5)
        assert _close(fold_med(pair_table(*args)),
                      _pmf_med(error_law(*args)))

    def test_a_windowed_block_at_width_62(self):
        spec = parse_adder("aca1:62:8").build()
        med = fold_med(windowed_table(spec, 0.5, 0.5))
        assert math.isfinite(med) and med > 0.0


class TestErrorPMF:
    PAIRS = ((-3, 0.25), (0, 0.5), (7, 0.25))

    def _pmf(self):
        return ErrorPMF([d for d, _ in self.PAIRS],
                        [p for _, p in self.PAIRS])

    def test_iterates_as_python_pairs(self):
        pairs = tuple(self._pmf())
        assert pairs == self.PAIRS
        assert all(type(d) is int and type(p) is float for d, p in pairs)
        assert len(self._pmf()) == 3
        assert dict(self._pmf()) == dict(self.PAIRS)

    def test_equality_and_hash(self):
        pmf = self._pmf()
        assert pmf == self._pmf()
        assert pmf == self.PAIRS
        assert pmf == [list(pair) for pair in self.PAIRS]
        assert pmf != self.PAIRS[:2]
        assert pmf != ErrorPMF([-3, 0, 7], [0.25, 0.5, 0.2])
        assert pmf != ErrorPMF([-3, 0, 8], [0.25, 0.5, 0.25])
        assert pmf != None  # noqa: E711
        assert hash(pmf) == hash(self._pmf()) == hash(self.PAIRS)

    def test_is_immutable(self):
        pmf = self._pmf()
        with pytest.raises(ValueError):
            pmf.probs[0] = 1.0
        with pytest.raises(ValueError):
            pmf.deltas[0] = 1
        with pytest.raises(AttributeError):
            pmf.probs = np.zeros(3)

    def test_owns_its_arrays(self):
        deltas, probs = np.array([0, 1]), np.array([0.5, 0.5])
        pmf = ErrorPMF(deltas, probs)
        probs[0] = 1.0
        assert pmf == ((0, 0.5), (1, 0.5))

    def test_to_lists_is_the_json_pair_list(self):
        assert self._pmf().to_lists() == [list(p) for p in self.PAIRS]

    @pytest.mark.parametrize("deltas, probs", [
        ([1, 0], [0.5, 0.5]),           # descending
        ([0, 0], [0.5, 0.5]),           # repeated
        ([0, 1], [1.0]),                # unequal lengths
        ([[0, 1]], [[0.5, 0.5]]),       # not 1-D
        ([1 << 63, 0], [0.5, 0.5]),     # descending past int64
    ])
    def test_malformed_arrays_are_refused(self, deltas, probs):
        with pytest.raises(AnalysisError):
            ErrorPMF(deltas, probs)

    def test_deltas_past_int64_stay_exact_python_ints(self):
        top = 1 << 64
        pmf = ErrorPMF([-top, 0, top], [0.25, 0.5, 0.25])
        assert pmf.deltas.dtype == object
        assert tuple(pmf) == ((-top, 0.25), (0, 0.5), (top, 0.25))
        assert all(type(d) is int for d, _ in pmf)
        assert pmf.to_lists() == [[-top, 0.25], [0, 0.5], [top, 0.25]]
        assert pmf == ErrorPMF(np.array([-top, 0, top], dtype=object),
                               [0.25, 0.5, 0.25])
        assert hash(pmf) == hash(tuple(pmf))
