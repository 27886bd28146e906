"""Tests for MAC / accumulator structures."""

import numpy as np
import pytest

from repro.core.exceptions import AnalysisError, ChainLengthError
from repro.multiop.mac import (
    Accumulator,
    accumulator_drift_profile,
    dot_product,
    mean_accumulator_drift,
)


class TestDotProduct:
    def test_accurate_configuration_is_exact(self, rng):
        for _ in range(20):
            a = [int(v) for v in rng.integers(0, 16, 8)]
            b = [int(v) for v in rng.integers(0, 16, 8)]
            assert dot_product(a, b, 4) == sum(
                x * y for x, y in zip(a, b)
            )

    def test_empty_vectors(self):
        assert dot_product([], [], 4) == 0

    def test_length_mismatch(self):
        with pytest.raises(AnalysisError):
            dot_product([1, 2], [1], 4)

    def test_operand_range(self):
        with pytest.raises(ChainLengthError):
            dot_product([16], [1], 4)

    def test_approximate_compressor_changes_results(self):
        a = [3, 7, 12, 5, 9, 14, 2, 8]
        b = [11, 4, 6, 13, 1, 10, 15, 7]
        exact = sum(x * y for x, y in zip(a, b))
        approx = dot_product(a, b, 4, compress_cell="LPAA 6")
        assert approx != exact
        # deterministic: same inputs, same approximate result
        assert approx == dot_product(a, b, 4, compress_cell="LPAA 6")

    def test_lsb_limited_final_adder_bounds_error(self):
        # Approximating only the low k bits of the final carry-propagate
        # adder bounds the dot-product error: divergence above bit k is
        # impossible when the upper cells are accurate, so
        # |approx - exact| < 2^(k+1).
        k = 3
        rng_vals = [
            ([3, 7, 12, 5], [11, 4, 6, 13]),
            ([15, 15, 15, 15], [15, 15, 15, 15]),
            ([1, 2, 3, 4], [8, 9, 10, 11]),
        ]
        for a, b in rng_vals:
            exact = sum(x * y for x, y in zip(a, b))
            # chain long enough for any reduction width; low k approx.
            chain = ["LPAA 2"] * k + ["accurate"] * 16
            approx = dot_product(a, b, 4, final_adder=chain[:10])
            assert abs(approx - exact) < (1 << (k + 1)), (a, b)


class TestAccumulator:
    def test_accurate_accumulator_tracks_exact(self):
        acc = Accumulator(8, "accurate")
        for v in (10, 20, 30, 250):
            acc.add(v)
        assert acc.value == acc.exact_value == (10 + 20 + 30 + 250) % 256
        assert acc.drift == 0
        assert acc.steps == 4

    def test_wraparound_semantics(self):
        acc = Accumulator(4, "accurate")
        acc.add(9)
        acc.add(9)
        assert acc.value == (18) % 16

    def test_reset(self):
        acc = Accumulator(4, "LPAA 1")
        acc.add(3)
        acc.reset()
        assert acc.value == 0 and acc.exact_value == 0 and acc.steps == 0

    def test_input_range_checked(self):
        acc = Accumulator(4)
        with pytest.raises(ChainLengthError):
            acc.add(16)

    def test_drift_is_signed_and_wrapped(self):
        acc = Accumulator(4, "accurate")
        acc._value = 15  # simulate an off-by-(-1) register under wrap
        acc._exact = 0
        assert acc.drift == -1

    def test_approximate_accumulator_drifts(self):
        drifts = accumulator_drift_profile(
            8, "LPAA 5", list(range(1, 64))
        )
        assert (drifts != 0).any()

    def test_drift_profile_length(self):
        drifts = accumulator_drift_profile(8, "accurate", [1, 2, 3])
        assert drifts.shape == (3,)
        assert (drifts == 0).all()


class TestMeanDrift:
    def test_accurate_mean_drift_is_zero(self):
        curve = mean_accumulator_drift(8, "accurate", steps=20, trials=4,
                                       seed=0)
        assert curve.shape == (20,)
        assert np.allclose(curve, 0.0)

    def test_lsb_only_approximation_bounds_drift(self):
        # Approximating only the low 2 bits bounds each step's error,
        # so mean drift stays well below the full-width case.
        lsb_chain = ["LPAA 5", "LPAA 5"] + ["accurate"] * 6
        lsb = mean_accumulator_drift(8, lsb_chain, steps=30, trials=16,
                                     seed=1)
        full = mean_accumulator_drift(8, "LPAA 5", steps=30, trials=16,
                                      seed=1)
        assert lsb.mean() < full.mean()

    def test_validation(self):
        with pytest.raises(AnalysisError):
            mean_accumulator_drift(8, "accurate", steps=0)

    @pytest.mark.parametrize("p_input", [-0.1, 1.5, float("nan")])
    def test_p_input_out_of_range_raises(self, p_input):
        with pytest.raises(AnalysisError, match="p_input"):
            mean_accumulator_drift(8, "LPAA 5", steps=4, p_input=p_input)
