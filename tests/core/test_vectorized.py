"""Unit tests for repro.core.vectorized (NumPy batch engine)."""

import numpy as np
import pytest

from repro import engine
from repro.core.exceptions import ProbabilityError
from repro.core.recursive import analyze_chain
from repro.core.vectorized import analyze_batch, success_by_width


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
