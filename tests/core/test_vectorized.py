"""Unit tests for repro.core.vectorized (NumPy batch engine)."""

import numpy as np
import pytest

from repro import engine
from repro.core import get_cell
from repro.core.adders import PAPER_LPAAS
from repro.core.exceptions import ProbabilityError
from repro.core.matrices import derive_matrices
from repro.core.recursive import analyze_chain
from repro.core.truth_table import ACCURATE
from repro.core.vectorized import (
    analyze_batch,
    chain_success,
    success_by_width,
)
from repro.engine.executor import BATCH_CHUNK


class TestAgreementWithScalarEngine:
    """The vectorised engine must match the scalar reference to ~1e-12."""

    def test_scalar_point_matches(self, lpaa_cell):
        got = analyze_batch(lpaa_cell, width=6, p_a=0.23, p_b=0.71, p_cin=0.4)
        ref = analyze_chain(lpaa_cell, width=6, p_a=0.23, p_b=0.71, p_cin=0.4)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(ref.p_success, abs=1e-12)

    def test_random_batch_matches(self, lpaa_cell, rng):
        batch, width = 17, 5
        p_a = rng.random((batch, width))
        p_b = rng.random((batch, width))
        p_cin = rng.random(batch)
        got = analyze_batch(lpaa_cell, width=width, p_a=p_a, p_b=p_b, p_cin=p_cin)
        for j in range(batch):
            ref = analyze_chain(
                lpaa_cell, width=width,
                p_a=list(p_a[j]), p_b=list(p_b[j]), p_cin=float(p_cin[j]),
            )
            assert got[j] == pytest.approx(ref.p_success, abs=1e-12)

    def test_hybrid_chain_matches(self, rng):
        cells = ["LPAA 7", "LPAA 6", "LPAA 1", "LPAA 4"]
        p = rng.random(9)
        got = 1.0 - analyze_batch(cells, p_a=p, p_b=p, p_cin=0.5)
        for j, pj in enumerate(p):
            ref = analyze_chain(cells, None, float(pj), float(pj), 0.5).p_error
            assert got[j] == pytest.approx(ref, abs=1e-12)


class TestBroadcasting:
    def test_width_vector_is_per_bit_not_batch(self):
        # A 1-D array whose length equals the width is per-bit data.
        got = analyze_batch("LPAA 1", width=4, p_a=[0.9, 0.5, 0.4, 0.8],
                            p_b=[0.8, 0.7, 0.6, 0.9], p_cin=0.5)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(0.738476, abs=5e-7)

    def test_batch_vector_broadcasts_over_bits(self):
        p = np.array([0.1, 0.5, 0.9])
        got = 1.0 - analyze_batch("LPAA 6", width=8, p_a=p, p_b=p, p_cin=0.5)
        assert got.shape == (3,)
        for j, pj in enumerate(p):
            ref = analyze_chain("LPAA 6", 8, float(pj), float(pj), 0.5).p_error
            assert got[j] == pytest.approx(ref, abs=1e-12)

    def test_explicit_batch_argument(self):
        got = analyze_batch("LPAA 2", width=3, p_a=0.5, batch=4)
        assert got.shape == (4,)
        assert np.allclose(got, got[0])

    def test_bad_shapes_raise(self):
        with pytest.raises(ProbabilityError):
            analyze_batch("LPAA 1", width=4, p_a=np.zeros((2, 3)))
        with pytest.raises(ProbabilityError):
            analyze_batch("LPAA 1", width=4, p_a=np.zeros(5), batch=3)
        with pytest.raises(ProbabilityError):
            analyze_batch("LPAA 1", width=4, p_a=np.zeros((2, 2, 2)))

    def test_out_of_range_entries_raise(self):
        with pytest.raises(ProbabilityError):
            analyze_batch("LPAA 1", width=2, p_a=np.array([0.5, 1.5]), batch=2)
        with pytest.raises(ProbabilityError):
            analyze_batch("LPAA 1", width=2, p_cin=np.array([-0.1, 0.5]), batch=2)


class TestSuccessByWidth:
    def test_matches_per_width_scalar_runs(self, lpaa_cell):
        curve = success_by_width(lpaa_cell, max_width=8, p=0.1, p_cin=0.1)
        assert curve.shape == (8,)
        for n in range(1, 9):
            ref = analyze_chain(lpaa_cell, width=n, p_a=0.1, p_b=0.1, p_cin=0.1)
            assert curve[n - 1] == pytest.approx(ref.p_success, abs=1e-12)

    def test_error_curves_complement(self):
        s = success_by_width("LPAA 5", 6, 0.3)
        e = engine.error_curves("LPAA 5", 6, 0.3)
        assert np.allclose(s + e, 1.0)

    def test_batched_probability_grid(self):
        grid = np.array([0.1, 0.9])
        curves = success_by_width("LPAA 7", 5, grid)
        assert curves.shape == (2, 5)
        lone = success_by_width("LPAA 7", 5, 0.9)
        assert np.allclose(curves[1], lone)

    def test_success_is_non_increasing_in_width(self, lpaa_cell):
        # Adding stages can only discard more success mass.
        curve = success_by_width(lpaa_cell, 16, 0.5)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_validation(self):
        with pytest.raises(ProbabilityError):
            success_by_width("LPAA 1", 0, 0.5)
        with pytest.raises(ProbabilityError):
            success_by_width("LPAA 1", 4, 1.2)
        with pytest.raises(ProbabilityError):
            success_by_width("LPAA 1", 4, np.eye(2))
        with pytest.raises(ProbabilityError):
            success_by_width("LPAA 1", 4, [0.5, 0.5], p_cin=np.zeros(3))


class TestBatchInvariance:
    """The vectorised recursion is elementwise along the batch axis --
    the numerical contract ``run_batch``'s grouping and chunking rest on
    (fixed-order masked sums instead of BLAS matvecs whose reduction
    order varies with the batch shape)."""

    def test_analyze_batch_rows_independent_of_batch_mates(self):
        cells = [get_cell("LPAA 6")] * 5
        rng = np.random.default_rng(3)
        pa = rng.uniform(0, 1, size=(9, 5))
        pb = rng.uniform(0, 1, size=(9, 5))
        pc = rng.uniform(0, 1, size=9)
        full = analyze_batch(cells, None, pa, pb, pc, batch=9)
        for split in (1, 4, 8):
            pieces = np.concatenate([
                analyze_batch(cells, None, pa[:split], pb[:split],
                              pc[:split], batch=split),
                analyze_batch(cells, None, pa[split:], pb[split:],
                              pc[split:], batch=9 - split),
            ])
            assert np.array_equal(full, pieces), split

    def test_success_by_width_rows_independent_of_batch_mates(self):
        table = get_cell("LPAA 3")
        rng = np.random.default_rng(5)
        p = rng.uniform(0, 1, size=11)
        full = success_by_width(table, 9, p, 0.3)
        singles = np.vstack([
            success_by_width(table, 9, p[i:i + 1], 0.3) for i in range(11)
        ])
        assert np.array_equal(full, singles)


# -- frozen oracle: the original full 8-term masked-sum kernel ----------------

def _oracle_ipm(pa, pb, c1, c0):
    qa = 1.0 - pa
    qb = 1.0 - pb
    return np.stack([qa * qb * c0, qa * qb * c1, qa * pb * c0, qa * pb * c1,
                     pa * qb * c0, pa * qb * c1, pa * pb * c0, pa * pb * c1],
                    axis=1)


def _oracle_sum(ipm, mask):
    out = ipm[:, 0] * mask[0]
    for j in range(1, ipm.shape[1]):
        out += ipm[:, j] * mask[j]
    return out


def _oracle_analyze(cells, pa, pb, pc):
    c1 = pc.copy()
    c0 = 1.0 - pc
    for i, table in enumerate(cells):
        m, k, l = derive_matrices(table).as_arrays()
        ipm = _oracle_ipm(pa[:, i], pb[:, i], c1, c0)
        if i == len(cells) - 1:
            return _oracle_sum(ipm, l)
        c1, c0 = _oracle_sum(ipm, m), _oracle_sum(ipm, k)


def _oracle_by_width(table, max_width, p, pc):
    m, k, l = derive_matrices(table).as_arrays()
    c1 = pc.copy()
    c0 = 1.0 - pc
    out = np.zeros((p.shape[0], max_width))
    for i in range(max_width):
        ipm = _oracle_ipm(p, p, c1, c0)
        out[:, i] = _oracle_sum(ipm, l)
        c1, c0 = _oracle_sum(ipm, m), _oracle_sum(ipm, k)
    return out


#: Operand values that stress the bit contract: the end points (rows of
#: the IPM that are exactly 0), subnormals, and values one ulp off 0/1.
_EDGE_PROBABILITIES = np.array([0.0, 1.0, 1e-310, 5e-324, 1.0 - 2 ** -53,
                                2 ** -52, 0.5])


def _random_grid(rng, batch, width):
    grid = rng.random((batch, width))
    edges = rng.random((batch, width)) < 0.3
    grid[edges] = rng.choice(_EDGE_PROBABILITIES, size=int(edges.sum()))
    return grid


def _random_hybrid(rng, width):
    pool = [ACCURATE] + list(PAPER_LPAAS)
    return [pool[i] for i in rng.integers(len(pool), size=width)]


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


class TestFrozenKernelBits:
    """``analyze_batch``, ``success_by_width`` and the scalar
    ``chain_success`` return exactly the bits of the original kernel,
    which summed all eight IPM rows times their 0/1 masks in canonical
    order."""

    @pytest.mark.parametrize("seed", range(6))
    def test_analyze_batch_matches_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for width in (1, 2, 3, 7, 16, 33, 64):
            cells = _random_hybrid(rng, width)
            for batch in (1, 5, 200):
                pa = _random_grid(rng, batch, width)
                pb = _random_grid(rng, batch, width)
                pc = rng.choice(np.array([0.0, 1.0, 0.3, 1e-310]),
                                size=batch)
                want = _oracle_analyze(cells, pa, pb, pc)
                got = analyze_batch(cells, None, pa, pb, pc, batch=batch)
                assert np.array_equal(_bits(got), _bits(want)), (width, batch)
                for j in range(min(batch, 5)):
                    scalar = chain_success(cells, pa[j].tolist(),
                                           pb[j].tolist(), float(pc[j]))
                    assert type(scalar) is float
                    assert np.array_equal(_bits(np.array([scalar])),
                                          _bits(want[j:j + 1])), (width, j)

    def test_batch_past_the_executor_chunk(self):
        rng = np.random.default_rng(11)
        batch = BATCH_CHUNK + 37
        for width in (1, 64):
            cells = _random_hybrid(rng, width)
            pa = _random_grid(rng, batch, width)
            pb = _random_grid(rng, batch, width)
            pc = rng.choice(np.array([0.0, 1.0, 0.5]), size=batch)
            want = _oracle_analyze(cells, pa, pb, pc)
            got = analyze_batch(cells, None, pa, pb, pc, batch=batch)
            assert np.array_equal(_bits(got), _bits(want)), width

    @pytest.mark.parametrize("table", [ACCURATE] + list(PAPER_LPAAS),
                             ids=["AccuFA"] + [f"LPAA{i}" for i in range(1, 8)])
    def test_success_by_width_matches_the_oracle(self, table):
        rng = np.random.default_rng(7)
        for batch in (1, BATCH_CHUNK + 3):
            p = rng.random(batch)
            edges = rng.random(batch) < 0.3
            p[edges] = rng.choice(_EDGE_PROBABILITIES, size=int(edges.sum()))
            for p_cin in (0.0, 1.0, 0.37):
                pc = np.full(batch, p_cin)
                want = _oracle_by_width(table, 64, p, pc)
                got = success_by_width(table, 64, p, p_cin)
                assert np.array_equal(_bits(got), _bits(want)), (batch, p_cin)

    def test_accurate_success_from_half_is_exactly_one(self):
        # Accurate cell at p=0.5: the carry-out of a successful stage is
        # correct by construction, so success from (0.5, 0.5) is 1.
        assert np.all(success_by_width(ACCURATE, 64, 0.5, 0.5) == 1.0)
        assert chain_success([ACCURATE], [0.5], [0.5], 0.5) == 1.0

    def test_accurate_cell_keeps_all_carry_mass(self):
        # The accurate cell never fails: every stage keeps all the carry
        # mass, so success stays at 1 at every width and input bias.
        got = analyze_batch(ACCURATE, width=1, p_a=0.3, p_b=0.8, p_cin=0.0)
        assert got[0] == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(7)
        p = rng.random(BATCH_CHUNK + 3)
        edges = rng.random(p.size) < 0.3
        p[edges] = rng.choice(_EDGE_PROBABILITIES, size=int(edges.sum()))
        for p_cin in (0.0, 1.0, 0.37):
            got = success_by_width(ACCURATE, 64, p, p_cin)
            assert np.allclose(got, 1.0, rtol=0.0, atol=1e-12), p_cin
