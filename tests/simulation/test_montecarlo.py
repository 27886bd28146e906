"""Unit tests for repro.simulation.montecarlo."""

import numpy as np
import pytest

from repro.core.exceptions import AnalysisError, CheckpointError
from repro.core.recursive import analyze_chain
from repro.runtime.checkpoint import (
    Checkpoint,
    config_fingerprint,
    rng_state_to_jsonable,
    save_checkpoint,
)
from repro.simulation.montecarlo import (
    MonteCarloResult,
    simulate_error_probability,
    simulate_samples,
)


class TestSimulateErrorProbability:
    def test_three_decimal_agreement_at_1m_samples(self):
        # The paper's Table 6 claim, at the Table 7 operating point.
        analytical = float(analyze_chain("LPAA 6", 8, 0.1, 0.1, 0.1).p_error)
        result = simulate_error_probability(
            "LPAA 6", 8, 0.1, 0.1, 0.1, samples=1_000_000, seed=7
        )
        assert abs(result.p_error - analytical) < 1.5e-3

    def test_seed_reproducibility(self):
        a = simulate_error_probability("LPAA 1", 4, 0.3, 0.3, 0.3,
                                       samples=10_000, seed=42)
        b = simulate_error_probability("LPAA 1", 4, 0.3, 0.3, 0.3,
                                       samples=10_000, seed=42)
        assert a.p_error == b.p_error
        assert a.errors == b.errors

    def test_result_bookkeeping(self):
        result = simulate_error_probability("LPAA 2", 3, samples=5_000, seed=1)
        assert isinstance(result, MonteCarloResult)
        assert result.samples == 5_000
        assert result.p_error == pytest.approx(result.errors / 5_000)
        assert result.p_success == pytest.approx(1 - result.p_error)
        assert 0 < result.half_width() < 0.05

    def test_estimate_within_confidence_interval(self, lpaa_cell):
        analytical = float(analyze_chain(lpaa_cell, 5, 0.4, 0.4, 0.4).p_error)
        result = simulate_error_probability(
            lpaa_cell, 5, 0.4, 0.4, 0.4, samples=200_000, seed=123
        )
        # 4-sigma band: overwhelmingly unlikely to fail by chance.
        assert abs(result.p_error - analytical) < result.half_width(z=4.0) + 1e-9

    def test_deterministic_inputs(self):
        # p in {0,1} pins the operands; the estimate must be exactly 0/1.
        result = simulate_error_probability(
            "LPAA 1", 2, p_a=[1, 1], p_b=[1, 1], p_cin=1,
            samples=1_000, seed=3,
        )
        assert result.p_error in (0.0, 1.0)


class TestSimulateSamples:
    def test_shapes_and_ranges(self):
        approx, exact = simulate_samples("LPAA 4", 4, samples=1_000, seed=0)
        assert approx.shape == exact.shape == (1_000,)
        assert approx.min() >= 0 and approx.max() < 1 << 5
        assert exact.max() <= 15 + 15 + 1

    def test_batching_preserves_stream(self):
        big = simulate_samples("LPAA 3", 3, samples=3_000, seed=9,
                               batch_size=1_000)
        small = simulate_samples("LPAA 3", 3, samples=3_000, seed=9,
                                 batch_size=3_000)
        # Different batching slices the identical RNG stream differently,
        # so only distributional agreement is required.
        assert np.mean(big[0] != big[1]) == pytest.approx(
            np.mean(small[0] != small[1]), abs=0.05
        )

    def test_operand_bias_respected(self):
        approx, exact = simulate_samples(
            "accurate", 8, p_a=0.9, p_b=0.1, samples=50_000, seed=11
        )
        # E[a] ~ 0.9 * 255, E[b] ~ 0.1 * 255; exact = a + b + cin.
        assert exact.mean() == pytest.approx(0.9 * 255 + 0.1 * 255 + 0.5, rel=0.02)

    def test_sample_count_validation(self):
        with pytest.raises(AnalysisError):
            simulate_samples("LPAA 1", 2, samples=0)


class TestConfidenceIntervals:
    def _result(self, errors, samples=10_000):
        return MonteCarloResult(p_error=errors / samples, samples=samples,
                                errors=errors, seed=0)

    def test_normal_is_the_default(self):
        result = self._result(2_500)
        assert result.half_width() == result.half_width(method="normal")

    def test_normal_half_width_value(self):
        result = self._result(2_500)
        p = 0.25
        expected = 1.96 * (p * (1 - p) / 10_000) ** 0.5
        assert result.half_width() == pytest.approx(expected)

    def test_wilson_interval_brackets_the_estimate(self):
        result = self._result(2_500)
        lo, hi = result.wilson_interval()
        assert lo < result.p_error < hi
        # Wilson and Wald agree closely away from the boundaries.
        assert (hi - lo) / 2 == pytest.approx(result.half_width(), rel=0.01)

    def test_wilson_stays_positive_at_zero_errors(self):
        result = self._result(0)
        assert result.half_width() == 0.0  # the Wald degeneracy
        lo, hi = result.wilson_interval()
        assert lo == 0.0
        assert hi > 0.0  # "no errors seen" != "errors impossible"
        assert result.half_width(method="wilson") == pytest.approx(
            (hi - lo) / 2
        )

    def test_wilson_is_clamped_to_unit_interval(self):
        lo, hi = self._result(10_000).wilson_interval()
        assert 0.0 <= lo <= hi <= 1.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown interval method"):
            self._result(1).half_width(method="bootstrap")


class TestManifest:
    def test_result_carries_a_manifest(self):
        result = simulate_error_probability("LPAA 2", 3, samples=1_000,
                                            seed=5)
        manifest = result.manifest
        assert manifest is not None
        assert manifest.kind == "montecarlo"
        assert manifest.seed == 5
        assert manifest.samples == 1_000
        assert manifest.cells == ("LPAA 2",) * 3
        assert manifest.wall_time_s > 0.0

    def test_fingerprint_is_seed_deterministic(self):
        a = simulate_error_probability("LPAA 1", 4, samples=1_000, seed=9)
        b = simulate_error_probability("LPAA 1", 4, samples=1_000, seed=9)
        c = simulate_error_probability("LPAA 1", 4, samples=1_000, seed=10)
        assert a.manifest.fingerprint() == b.manifest.fingerprint()
        assert a.manifest.fingerprint() != c.manifest.fingerprint()


class TestCheckpointIdentity:
    def test_checkpoint_of_the_float_draw_is_refused(self, tmp_path):
        # A checkpoint written under the earlier per-bit float draw has
        # the same cells, seed, samples, p's and batch size; resuming it
        # would splice two operand streams into one estimate.
        ckpt = tmp_path / "mc.ckpt"
        float_draw_identity = dict(
            kind="montecarlo", cells=["LPAA 1"] * 4, seed=11,
            samples=16_384, p_a=[0.3] * 4, p_b=[0.7] * 4, p_cin=0.5,
            batch_size=8_192)
        rng = np.random.default_rng(11)
        save_checkpoint(ckpt, Checkpoint(
            kind="montecarlo",
            fingerprint=config_fingerprint(**float_draw_identity),
            payload={"samples_done": 8_192, "errors": 0,
                     "rng_state": rng_state_to_jsonable(
                         rng.bit_generator.state)},
            sequence=1))
        with pytest.raises(CheckpointError, match="different run"):
            simulate_error_probability(
                "LPAA 1", 4, 0.3, 0.7, 0.5, samples=16_384, seed=11,
                batch_size=8_192, checkpoint_path=str(ckpt), resume=True)


class TestProgressReporting:
    def test_progress_callback_fires_in_order(self):
        ticks = []
        simulate_samples(
            "LPAA 1", 4, samples=10_000, batch_size=1_000, seed=0,
            progress=lambda done, total, label: ticks.append((done, total)),
        )
        assert ticks[0] == (1_000, 10_000)
        assert ticks[-1] == (10_000, 10_000)
        assert [d for d, _ in ticks] == sorted(d for d, _ in ticks)
