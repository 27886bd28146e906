"""CLI resilience surface: new flags, simulate subcommand, exit 130."""

import pytest

from repro.cli import main
from repro.runtime import ChaosShim, install_chaos


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulateCommand:
    def test_small_width_routes_exhaustive(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--cell", "LPAA 1", "--width", "4",
        )
        assert code == 0
        assert "engine     : exhaustive" in out
        assert "0.546875" in out

    def test_budget_degrades_to_montecarlo(self, capsys, tmp_path):
        save = tmp_path / "sim.json"
        code, out, _ = run_cli(
            capsys, "simulate", "--cell", "LPAA 2", "--width", "14",
            "--max-cases", "1000", "--max-samples", "5000",
            "--seed", "3", "--save", str(save),
        )
        assert code == 0
        assert "engine     : montecarlo" in out
        assert "degraded   : from exhaustive" in out
        assert save.exists()

        from repro.io import load_result

        loaded = load_result(save)
        assert loaded.samples == 5_000
        assert loaded.manifest.degraded_from == "exhaustive"


class TestAnalyzeValidate:
    def test_validate_flag_reports_interval(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--cell", "LPAA 1", "--width", "3",
            "--validate",
        )
        assert code == 0
        assert "validated  : simulation" in out


class TestKeyboardInterrupt:
    def test_interrupt_exits_130_and_mentions_checkpoint(self, capsys,
                                                         tmp_path):
        ckpt = tmp_path / "mc.ckpt"
        with install_chaos(ChaosShim(interrupt_after_ticks=1)):
            code = main([
                "compare", "--cell", "LPAA 1", "--width", "4",
                "--samples", "20000", "--checkpoint", str(ckpt),
            ])
        err = capsys.readouterr().err
        assert code == 130
        assert "interrupted" in err
        assert str(ckpt) in err
        assert ckpt.exists()  # the engine flushed before propagating

    def test_resume_after_interrupt_completes(self, capsys, tmp_path):
        ckpt = tmp_path / "mc.ckpt"
        with install_chaos(ChaosShim(interrupt_after_ticks=1)):
            assert main([
                "compare", "--cell", "LPAA 1", "--width", "4",
                "--samples", "20000", "--seed", "4",
                "--checkpoint", str(ckpt),
            ]) == 130
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "compare", "--cell", "LPAA 1", "--width", "4",
            "--samples", "20000", "--seed", "4",
            "--checkpoint", str(ckpt), "--resume",
        )
        assert code == 0
        assert "monte-carlo (20000 samples)" in out

    def test_deadline_flag_marks_truncated_rows(self, capsys):
        with install_chaos(ChaosShim(advance_per_tick=100.0)):
            code, out, _ = run_cli(
                capsys, "compare", "--cell", "LPAA 1", "--width", "4",
                "--samples", "2000000", "--deadline", "1.0",
            )
        assert code == 0
        assert "[truncated: deadline]" in out
