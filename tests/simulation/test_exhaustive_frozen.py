"""The weighted-case enumerator against frozen copies of the loops it
replaced.

The chain oracles below are the original per-delta enumeration (one
masked sum per distinct delta, operand weights rebuilt per block); the
windowed oracle is the original chunked block-adder enumeration.  The
shared enumerator must return the same ``P(error)``, error count, MRED
and bias bits, the same PMF support, PMF masses within 1e-13 relative
(``np.bincount`` sums a bin in another order than a masked ``sum``),
and bit-identical PMFs wherever every mass is dyadic.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from repro.core.adder_zoo import named_zoo, windowed_add_array
from repro.core.recursive import resolve_chain
from repro.simulation import (
    exhaustive_error_count,
    exhaustive_error_probability,
    exhaustive_quality,
    exhaustive_report,
    ripple_add_array,
    windowed_exhaustive_quality,
)

_CELLS = ["AccuFA"] + [f"LPAA {i}" for i in range(1, 8)]
_BLOCK_CASES = 1 << 21


def _bit_weights(values, probs, width):
    weights = np.ones(values.shape, dtype=np.float64)
    for i in range(width):
        bit = (values >> i) & 1
        p = float(probs[i])
        weights *= np.where(bit == 1, p, 1.0 - p)
    return weights


def _blocks(width):
    values = np.arange(1 << width, dtype=np.int64)
    step = max(1, _BLOCK_CASES // (1 << (width + 1)))
    for start in range(0, values.size, step):
        a, b, cin = np.meshgrid(
            values[start:start + step], values,
            np.array([0, 1], dtype=np.int64), indexing="ij",
        )
        yield a.ravel(), b.ravel(), cin.ravel()


def _oracle_chain(cells, pa, pb, pc):
    """(P(error), error count, PMF, MRED, bias) as the original loops
    computed them."""
    n = len(cells)
    mass = 0.0
    errors = 0
    pmf: Dict[int, float] = {}
    mred = 0.0
    bias = 0.0
    for a, b, cin in _blocks(n):
        exact = a + b + cin
        approx = ripple_add_array(cells, a, b, cin)
        delta = approx - exact
        weights = (
            _bit_weights(a, pa, n)
            * _bit_weights(b, pb, n)
            * np.where(cin == 1, pc, 1.0 - pc)
        )
        wrong = approx != exact
        mass += float(weights[wrong].sum())
        errors += int(wrong.sum())
        for d in np.unique(delta):
            m = float(weights[delta == d].sum())
            if m > 0.0:
                pmf[int(d)] = pmf.get(int(d), 0.0) + m
        abs_delta = np.abs(delta).astype(np.float64)
        mred += float((weights * abs_delta / np.maximum(exact, 1)).sum())
        bias += float((weights * delta).sum())
    pmf = {d: m for d, m in sorted(pmf.items()) if m > 0.0}
    return mass, errors, pmf, mred, bias


def _oracle_windowed(spec, pa, pb, chunk=1 << 12):
    """The original block-adder enumeration's PMF."""
    n = spec.width
    values = np.arange(1 << n, dtype=np.int64)
    wa = _bit_weights(values, pa, n)
    wb = _bit_weights(values, pb, n)
    pmf: Dict[int, float] = {}
    for start in range(0, 1 << n, chunk):
        rows = values[start:start + chunk][:, None]
        delta = windowed_add_array(spec, rows, values[None, :]) \
            - (rows + values[None, :])
        w = wa[start:start + chunk][:, None] * wb[None, :]
        uniques, inverse = np.unique(delta, return_inverse=True)
        sums = np.bincount(inverse.ravel(), weights=w.ravel(),
                           minlength=uniques.size)
        for d, p in zip(uniques, sums):
            if p > 0.0:
                pmf[int(d)] = pmf.get(int(d), 0.0) + float(p)
    return pmf


def _random_probabilities(rng, width):
    """Per-bit probabilities mixing 0, 1, subnormals and random values."""
    edges = np.array([0.0, 1.0, 5e-324, 1e-310])
    p = rng.random(width)
    pick = rng.random(width) < 0.4
    p[pick] = rng.choice(edges, size=int(pick.sum()))
    return p.tolist()


def _random_chain(rng, width):
    cells = [_CELLS[i] for i in rng.integers(0, len(_CELLS), size=width)]
    pa = _random_probabilities(rng, width)
    pb = _random_probabilities(rng, width)
    pc = float(rng.choice(np.array([0.0, 1.0, 1e-310, rng.random()])))
    return resolve_chain(cells, None), pa, pb, pc


def _assert_pmf_close(got, want):
    assert list(got) == list(want)
    for d, m in want.items():
        assert got[d] == pytest.approx(m, rel=1e-13, abs=0.0), d


class TestFrozenOracleBits:
    @pytest.mark.parametrize("width", range(1, 9))
    def test_chains_match_the_original_loops(self, width):
        rng = np.random.default_rng(100 + width)
        for _ in range(3):
            cells, pa, pb, pc = _random_chain(rng, width)
            mass, errors, pmf, mred, bias = _oracle_chain(cells, pa, pb, pc)

            quality = exhaustive_quality(cells, None, pa, pb, pc)
            _assert_pmf_close(quality.pmf, pmf)
            assert quality.mred == mred
            assert quality.bias == bias
            assert exhaustive_error_probability(cells, None, pa, pb, pc) \
                == mass
            assert exhaustive_report(cells, None, pa, pb, pc).p_error \
                == mass

            count_errors = _oracle_chain(cells, [0.5] * width,
                                         [0.5] * width, 0.5)[1]
            assert exhaustive_error_count(cells) \
                == (count_errors, 1 << (2 * width + 1))
            assert errors == count_errors

    @pytest.mark.parametrize("width", [4, 8])
    def test_dyadic_chain_pmf_is_bit_identical(self, width):
        rng = np.random.default_rng(width)
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        for _ in range(4):
            cells = resolve_chain(
                [_CELLS[i] for i in rng.integers(0, len(_CELLS), size=width)],
                None)
            pa = rng.choice(grid, size=width).tolist()
            pb = rng.choice(grid, size=width).tolist()
            pc = float(rng.choice(grid))
            want = _oracle_chain(cells, pa, pb, pc)[2]
            assert exhaustive_quality(cells, None, pa, pb, pc).pmf == want

    def test_dyadic_zoo_pmf_is_bit_identical(self):
        pa = [0.25, 0.5, 0.75, 0.5, 1.0, 0.5, 0.0, 0.5]
        pb = [0.5, 0.75, 0.25, 0.5, 0.5, 0.0, 0.5, 1.0]
        for adder in named_zoo(8):
            built = adder.build()
            for p_a, p_b in (([0.5] * 8, [0.5] * 8), (pa, pb)):
                if adder.representation == "windowed":
                    got = windowed_exhaustive_quality(built, p_a, p_b)
                    want = _oracle_windowed(built, p_a, p_b)
                    assert got.cases == 1 << 16
                else:
                    # Chain-shaped members add with carry-in 0.
                    got = exhaustive_quality(built, None, p_a, p_b, 0.0)
                    want = _oracle_chain(built, p_a, p_b, 0.0)[2]
                assert got.pmf == want, adder.config_string
