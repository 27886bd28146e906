"""Fault-injected IO: atomic writes never corrupt, retries are bounded."""

import pytest

from repro.io import atomic_write_text
from repro.runtime import ChaosShim, install_chaos

pytestmark = pytest.mark.chaos


def leftovers(directory):
    return [p for p in directory.iterdir() if p.suffix == ".tmp"]


class TestAtomicWrite:
    def test_plain_write_round_trips(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
        assert not leftovers(tmp_path)

    def test_injected_failure_leaves_destination_intact(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("previous good content")
        with install_chaos(ChaosShim(fail_io_times=-1)):
            with pytest.raises(OSError, match="after .* attempts"):
                atomic_write_text(path, "new content", retries=2,
                                  retry_wait_s=0.0)
        # All-or-nothing: the old content survives, no temp debris.
        assert path.read_text() == "previous good content"
        assert not leftovers(tmp_path)

    def test_transient_failures_within_retry_budget_succeed(self, tmp_path):
        path = tmp_path / "out.json"
        shim = ChaosShim(fail_io_times=2)
        with install_chaos(shim):
            atomic_write_text(path, "eventually", retries=3,
                              retry_wait_s=0.0)
        assert path.read_text() == "eventually"
        assert shim.io_failures_injected == 2
        assert not leftovers(tmp_path)

    def test_retry_budget_is_bounded(self, tmp_path):
        shim = ChaosShim(fail_io_times=-1)
        with install_chaos(shim):
            with pytest.raises(OSError):
                atomic_write_text(tmp_path / "out.json", "x", retries=3,
                                  retry_wait_s=0.0)
        assert shim.io_failures_injected == 4  # initial try + 3 retries

    def test_missing_directory_raises_at_once(self, tmp_path):
        # Not transient: no retries, and the caller sees the cause
        # (a spent retry budget would raise a plain OSError instead).
        with pytest.raises(FileNotFoundError):
            atomic_write_text(tmp_path / "absent" / "out.json", "x",
                              retries=3, retry_wait_s=0.0)
        assert not (tmp_path / "absent").exists()


class TestEngineSurvivesCheckpointFailures:
    def test_montecarlo_completes_despite_dead_checkpoint_disk(self, tmp_path):
        from repro.simulation.montecarlo import simulate_error_probability

        baseline = simulate_error_probability(
            "LPAA 1", 4, samples=20_000, seed=9, batch_size=4_096,
        )
        with install_chaos(ChaosShim(fail_io_times=-1)):
            result = simulate_error_probability(
                "LPAA 1", 4, samples=20_000, seed=9, batch_size=4_096,
                checkpoint_path=str(tmp_path / "mc.ckpt"),
            )
        # The run loses resumability, never correctness.
        assert result.errors == baseline.errors
        assert not (tmp_path / "mc.ckpt").exists()
        assert not leftovers(tmp_path)

    def test_saved_results_survive_write_faults(self, tmp_path):
        from repro.io import load_result, save_result
        from repro.simulation.montecarlo import simulate_error_probability

        result = simulate_error_probability("LPAA 1", 4, samples=5_000,
                                            seed=1)
        path = tmp_path / "result.json"
        with install_chaos(ChaosShim(fail_io_times=2)):
            save_result(result, path)  # retries absorb the faults
        loaded = load_result(path)
        assert loaded.errors == result.errors
