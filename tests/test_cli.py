"""End-to-end tests for the sealpaa CLI."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestAnalyze:
    def test_table4_point(self, capsys):
        code, out = run_cli(
            capsys, "analyze", "--cell", "LPAA 1", "--width", "4",
            "--pa", "0.9,0.5,0.4,0.8", "--pb", "0.8,0.7,0.6,0.9",
        )
        assert code == 0
        assert "0.738476" in out

    def test_trace_flag_prints_table(self, capsys):
        code, out = run_cli(
            capsys, "analyze", "--cell", "LPAA 1", "--width", "4", "--trace",
        )
        assert code == 0
        assert "Stage (i)" in out and "NR" in out

    def test_hybrid_spec(self, capsys):
        code, out = run_cli(
            capsys, "analyze", "--spec", "LPAA7:2, LPAA1:2",
            "--pa", "0.1", "--pb", "0.1",
        )
        assert code == 0
        assert "LPAA 7 x2 | LPAA 1 x2" in out

    def test_masking_chain_warns(self, capsys):
        code, out = run_cli(
            capsys, "analyze", "--spec", "LPAA6:1, LPAA1:1, LPAA7:1",
        )
        assert code == 0
        assert "upper bound" in out

    def test_missing_chain_spec_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--cell", "LPAA 1"])  # no width

    def test_bad_probability_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--cell", "LPAA 1", "--width", "2",
                  "--pa", "1.5"])


class TestSweep:
    def test_default_sweep(self, capsys):
        code, out = run_cli(capsys, "sweep", "--cells", "LPAA 1", "LPAA 7",
                            "--max-width", "4")
        assert code == 0
        assert "N=4" in out and "LPAA 7" in out


class TestCompare:
    def test_small_chain_all_methods(self, capsys):
        code, out = run_cli(
            capsys, "compare", "--cell", "LPAA 6", "--width", "3",
            "--pa", "0.1", "--pb", "0.1", "--pcin", "0.1",
            "--samples", "20000", "--seed", "1",
        )
        assert code == 0
        assert "analytical" in out
        assert "exhaustive" in out
        assert "monte-carlo" in out


class TestGear:
    def test_gear_report(self, capsys):
        code, out = run_cli(capsys, "gear", "--n", "8", "--r", "2", "--p", "2")
        assert code == 0
        assert "linear DP" in out
        assert "0.187500" in out  # exact value for GeAr(8,2,2) at p=0.5


class TestHybrid:
    def test_hybrid_search(self, capsys):
        code, out = run_cli(
            capsys, "hybrid", "--width", "4", "--pa", "0.1", "--pb", "0.1",
            "--show-greedy",
        )
        assert code == 0
        assert "optimal chain" in out and "LPAA 7" in out
        assert "greedy chain" in out


class TestPowerAndCells:
    def test_power_table(self, capsys):
        code, out = run_cli(capsys, "power", "--cell", "LPAA 1",
                            "--width", "4")
        assert code == 0
        assert "771" in out  # published Table 2 power shows up
        assert "chain power" in out

    def test_cells_listing(self, capsys):
        code, out = run_cli(capsys, "cells")
        assert code == 0
        assert "AccuFA" in out
        for i in range(1, 8):
            assert f"LPAA {i}" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestErrorHandling:
    def test_library_errors_exit_cleanly(self, capsys):
        # invalid GeAr config: a ReproError becomes exit code 2 with a
        # message on stderr, not a traceback.
        code = main(["gear", "--n", "8", "--r", "3", "--p", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "multiple of R" in captured.err

    def test_unknown_cell_exits_cleanly(self, capsys):
        code = main(["analyze", "--cell", "no-such-cell", "--width", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown adder cell" in captured.err


class TestTable:
    @pytest.mark.parametrize("table_id,needle", [
        ("3", "1016"),          # k=8 multiplications
        ("4", "0.738476"),      # worked-example P(Succ)
        ("5", "[0,0,0,1,0,1,1,1]"),  # LPAA 1 M matrix
        ("7", "0.16953"),       # LPAA 6, N=8
    ])
    def test_supported_tables(self, capsys, table_id, needle):
        code, out = run_cli(capsys, "table", table_id)
        assert code == 0
        assert needle in out

    def test_unsupported_table(self):
        with pytest.raises(SystemExit, match="not supported"):
            main(["table", "9"])


class TestNewSubcommands:
    def test_symbolic(self, capsys):
        code, out = run_cli(capsys, "symbolic", "--cell", "LPAA 5",
                            "--width", "1")
        assert code == 0
        assert "2*p - 2*p^2" in out

    def test_symbolic_per_bit(self, capsys):
        code, out = run_cli(capsys, "symbolic", "--cell", "LPAA 1",
                            "--width", "2", "--mode", "per-bit")
        assert code == 0
        assert "a0" in out and "b1" in out

    def test_timing_chain(self, capsys):
        code, out = run_cli(capsys, "timing", "--cell", "LPAA 1",
                            "--width", "8")
        assert code == 0
        assert "critical path" in out

    def test_timing_llaa(self, capsys):
        code, out = run_cli(capsys, "timing", "--llaa", "--width", "8")
        assert code == 0
        assert "ACA-I" in out and "RCA(8)" in out

    def test_faults(self, capsys):
        code, out = run_cli(capsys, "faults", "--cell", "accurate",
                            "--width", "4", "--top", "5")
        assert code == 0
        assert "/SA" in out

    def test_ant(self, capsys):
        code, out = run_cli(capsys, "ant", "--cell", "LPAA 2",
                            "--width", "8", "--samples", "5000")
        assert code == 0
        assert "hard WCE bound" in out
        assert "replica usage" in out


class TestZoo:
    def test_analyze_named_adder(self, capsys):
        code, out = run_cli(capsys, "analyze", "--adder", "aca1:8:4")
        assert code == 0
        assert "zoo-dp" in out
        assert "0.125000" in out

    def test_analyze_chain_represented_adder(self, capsys):
        code, out = run_cli(capsys, "analyze", "--adder", "loa:8:4")
        assert code == 0
        assert "0.683594" in out

    def test_analyze_adder_rejects_trace(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--adder", "aca1:8:4", "--trace"])

    def test_distribution_named_adder(self, capsys):
        code, out = run_cli(capsys, "distribution", "--adder", "gda:8:2:2",
                            "--kind", "med")
        assert code == 0
        assert "MED" in out and "1.5" in out

    def test_zoo_families_table(self, capsys):
        code, out = run_cli(capsys, "zoo", "--families")
        assert code == 0
        for family in ("loa", "aca1", "gda", "axppa-ks"):
            assert family in out

    def test_zoo_describe_one_config(self, capsys):
        code, out = run_cli(capsys, "zoo", "--adder", "eta:8:2")
        assert code == 0
        assert "eta:<N>:<X>" in out
        assert "P(Error)   : 0.187500" in out

    def test_zoo_width_sweep_with_pareto(self, capsys):
        code, out = run_cli(capsys, "zoo", "--width", "6", "--pareto")
        assert code == 0
        assert "rca:6" not in out or "Pareto" in out
        assert "Delay" in out and "Engine" in out

    def test_zoo_bad_config_is_actionable(self, capsys):
        code = main(["zoo", "--adder", "martian:8"])
        assert code != 0
        assert "unknown adder family" in capsys.readouterr().err


class TestExport:
    def test_csv_export(self, capsys, tmp_path):
        out_file = tmp_path / "points.csv"
        code, out = run_cli(
            capsys, "export", "--cells", "LPAA 1", "--widths", "2", "4",
            "--probabilities", "0.5", "-o", str(out_file),
        )
        assert code == 0
        assert "2 design points" in out
        assert out_file.read_text().startswith("cell,width")


class TestCellsFile:
    def test_analyze_custom_cell_from_library(self, capsys, tmp_path):
        import json

        from repro.core.truth_table import ACCURATE

        rows = [list(r) for r in ACCURATE.rows]
        rows[3] = [0, 0]  # corrupt one row
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({
            "format": "sealpaa-cells-v1",
            "cells": [{"name": "CliCell", "rows": rows}],
        }))
        code, out = run_cli(
            capsys, "analyze", "--cells-file", str(path),
            "--cell", "CliCell", "--width", "3",
        )
        assert code == 0
        assert "CliCell x3" in out


class TestObservability:
    def test_metrics_out_writes_snapshot(self, capsys, tmp_path):
        import json

        metrics_file = tmp_path / "metrics.json"
        code, _ = run_cli(
            capsys, "analyze", "--cell", "LPAA 1", "--width", "4",
            "--metrics-out", str(metrics_file),
        )
        assert code == 0
        snapshot = json.loads(metrics_file.read_text())
        assert snapshot["format"] == "sealpaa-metrics-v1"
        assert snapshot["counters"]["core.recursive.calls"] == 1
        assert snapshot["counters"]["core.recursive.stages"] == 4
        assert "core.recursive.analyze_chain" in snapshot["timers"]

    def test_trace_path_writes_chrome_trace(self, capsys, tmp_path):
        import json

        trace_file = tmp_path / "trace.json"
        code, out = run_cli(
            capsys, "analyze", "--cell", "LPAA 1", "--width", "4",
            "--trace", str(trace_file),
        )
        assert code == 0
        # a PATH argument means "write the span trace", not the legacy
        # per-stage table
        assert "Stage (i)" not in out
        doc = json.loads(trace_file.read_text())
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert any(e["name"] == "core.recursive.analyze_chain"
                   for e in events)

    def test_verbose_prints_provenance_header(self, capsys):
        code = main(["analyze", "--cell", "LPAA 1", "--width", "4", "-v"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# sealpaa" in captured.err
        assert "P(Error)" in captured.out

    def test_metrics_cover_simulation_commands(self, capsys, tmp_path):
        import json

        metrics_file = tmp_path / "metrics.json"
        code, _ = run_cli(
            capsys, "compare", "--cell", "LPAA 1", "--width", "3",
            "--samples", "2000", "--metrics-out", str(metrics_file),
        )
        assert code == 0
        counters = json.loads(metrics_file.read_text())["counters"]
        assert counters["simulation.montecarlo.samples"] == 2000
        assert counters["simulation.exhaustive.cases"] == 1 << 7

    def test_version_includes_provenance(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        out = capsys.readouterr().out
        assert out.startswith("sealpaa ")
        assert "python" in out


class TestObsSubcommand:
    def _analyze_with(self, capsys, tmp_path):
        metrics_file = tmp_path / "m.json"
        trace_file = tmp_path / "t.json"
        run_cli(
            capsys, "analyze", "--cell", "LPAA 1", "--width", "4",
            "--metrics-out", str(metrics_file), "--trace", str(trace_file),
        )
        return metrics_file, trace_file

    def test_pretty_prints_metrics_snapshot(self, capsys, tmp_path):
        metrics_file, _ = self._analyze_with(capsys, tmp_path)
        code, out = run_cli(capsys, "obs", str(metrics_file))
        assert code == 0
        assert "core.recursive.calls" in out
        assert "Timer" in out and "p95 s" in out

    def test_pretty_prints_chrome_trace(self, capsys, tmp_path):
        _, trace_file = self._analyze_with(capsys, tmp_path)
        code, out = run_cli(capsys, "obs", str(trace_file))
        assert code == 0
        assert "core.recursive.analyze_chain" in out
        assert "trace events" in out

    def test_pretty_prints_result_document(self, capsys, tmp_path):
        from repro.io import save_result
        from repro.simulation.montecarlo import simulate_error_probability

        result = simulate_error_probability("LPAA 1", 4, samples=1_000,
                                            seed=1)
        path = tmp_path / "result.json"
        save_result(result, path)
        code, out = run_cli(capsys, "obs", str(path))
        assert code == 0
        assert "montecarlo" in out
        assert "run manifest" in out

    def test_rejects_unknown_documents(self, capsys, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(SystemExit):
            main(["obs", str(path)])


class TestServeSegmentCacheDir:
    """``serve --segment-cache-dir PATH`` still parses, is ignored, and
    chain questions keep running the float stage kernel."""

    @staticmethod
    def _config(path):
        from repro.cli import _serve_config, build_parser

        return _serve_config(build_parser().parse_args(
            ["serve", "--port", "0", "--batch-window-ms", "2",
             "--segment-cache-dir", str(path)]))

    def test_parses_logs_once_and_writes_nothing(self, tmp_path, caplog):
        path = tmp_path / "segments"
        with caplog.at_level("WARNING", logger="repro"):
            config = self._config(path)
        assert config.port == 0
        deprecations = [record for record in caplog.records
                        if "--segment-cache-dir" in record.getMessage()]
        assert len(deprecations) == 1
        assert not path.exists()

    def test_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        assert "--segment-cache-dir" not in capsys.readouterr().out

    def test_chain_answers_come_from_the_float_kernel(self, tmp_path):
        from repro import engine
        from repro.serve import AnalysisClient, AnalysisServer

        path = tmp_path / "segments"
        server = AnalysisServer(self._config(path))
        url = server.start()
        try:
            with AnalysisClient(url) as client:
                answer = client.analyze(
                    {"cell": "LPAA 6", "width": 128, "p_a": 0.3})
        finally:
            server.stop()
        exact = engine.run(engine.AnalysisRequest.chain("LPAA 6", 128, 0.3),
                           engine="transfer")
        assert answer["engine"] in ("recursive", "vectorized")
        assert answer["p_success"] == pytest.approx(
            exact.p_success, rel=1e-12, abs=0.0)
        assert not path.exists()
