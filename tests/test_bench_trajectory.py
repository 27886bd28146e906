"""The pinned perf trajectory: writer schema, comparison, CLI, linter CLI."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trajectory():
    return _load("bench_trajectory")


class TestWriter:
    def test_written_document_matches_the_schema(self, trajectory, tmp_path):
        path = tmp_path / "BENCH_test.json"
        doc = trajectory.write_trajectory(str(path), "unit", [
            trajectory.metric("rps", 100.0, unit="req/s"),
            trajectory.metric("latency_s", 0.2, unit="s",
                              higher_is_better=False),
        ])
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(doc))
        assert on_disk["format"] == "sealpaa-bench-v1"
        assert on_disk["benchmark"] == "unit"
        assert [m["metric"] for m in on_disk["metrics"]] == \
            ["rps", "latency_s"]
        assert on_disk["metrics"][1]["higher_is_better"] is False
        run = on_disk["run"]
        assert run["python"] and run["platform"] and run["created_at"]
        assert trajectory.load_trajectory(str(path)) == on_disk

    def test_duplicate_metric_names_rejected(self, trajectory, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            trajectory.write_trajectory(
                str(tmp_path / "x.json"), "unit",
                [trajectory.metric("a", 1), trajectory.metric("a", 2)])

    def test_load_rejects_foreign_documents(self, trajectory, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="sealpaa-bench-v1"):
            trajectory.load_trajectory(str(path))


def _doc(trajectory, **values):
    return {
        "format": "sealpaa-bench-v1", "benchmark": "unit",
        "metrics": [
            trajectory.metric(name, value,
                              higher_is_better=not name.endswith("_s"))
            for name, value in values.items()
        ],
    }


class TestCompare:
    def test_within_threshold_is_ok(self, trajectory):
        rows = trajectory.compare(_doc(trajectory, rps=100.0),
                                  _doc(trajectory, rps=90.0))
        assert rows[0]["status"] == "ok"
        assert trajectory.regressions(rows) == []

    def test_direction_aware_both_ways(self, trajectory):
        # Throughput down 40% = regression; latency down 40% = improved.
        rows = trajectory.compare(
            _doc(trajectory, rps=100.0, wall_s=1.0),
            _doc(trajectory, rps=60.0, wall_s=0.6))
        by_name = {r["metric"]: r for r in rows}
        assert by_name["rps"]["status"] == "regressed"
        assert by_name["wall_s"]["status"] == "improved"
        # And the mirror image: latency rising 40% regresses.
        rows = trajectory.compare(_doc(trajectory, wall_s=1.0),
                                  _doc(trajectory, wall_s=1.4))
        assert rows[0]["status"] == "regressed"

    def test_added_and_removed_metrics_never_fail(self, trajectory):
        rows = trajectory.compare(_doc(trajectory, old=1.0),
                                  _doc(trajectory, new=2.0))
        statuses = {r["metric"]: r["status"] for r in rows}
        assert statuses == {"old": "removed", "new": "added"}
        assert trajectory.regressions(rows) == []

    def test_custom_threshold(self, trajectory):
        rows = trajectory.compare(_doc(trajectory, rps=100.0),
                                  _doc(trajectory, rps=94.0),
                                  threshold=0.05)
        assert rows[0]["status"] == "regressed"


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable,
             str(REPO / "scripts" / "bench_trajectory.py"), *argv],
            capture_output=True, text=True, timeout=60)

    def test_compare_exits_zero_without_regressions(
            self, trajectory, tmp_path):
        base = tmp_path / "base.json"
        trajectory.write_trajectory(str(base), "unit",
                                    [trajectory.metric("rps", 100.0)])
        result = self._run("compare", str(base), str(base))
        assert result.returncode == 0, result.stderr
        assert "no regressions" in result.stdout

    def test_compare_exits_one_on_regression(self, trajectory, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        trajectory.write_trajectory(str(base), "unit",
                                    [trajectory.metric("rps", 100.0)])
        trajectory.write_trajectory(str(cur), "unit",
                                    [trajectory.metric("rps", 10.0)])
        result = self._run("compare", str(base), str(cur))
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout

    def test_show_renders_the_committed_baselines(self):
        for baseline in ("BENCH_serve.json", "BENCH_prefix.json"):
            result = self._run("show", str(REPO / baseline))
            assert result.returncode == 0, result.stderr
            assert "is better" in result.stdout


class TestCommittedBaselines:
    def test_baselines_exist_and_validate(self, trajectory):
        serve = trajectory.load_trajectory(str(REPO / "BENCH_serve.json"))
        names = {m["metric"] for m in serve["metrics"]}
        assert names == {"serial_rps", "batched_rps", "batching_speedup"}
        prefix = trajectory.load_trajectory(str(REPO / "BENCH_prefix.json"))
        names = {m["metric"] for m in prefix["metrics"]}
        assert "sweep_configs_per_s" in names


class TestPrometheusLinterCli:
    def _run(self, *argv, stdin=None):
        return subprocess.run(
            [sys.executable,
             str(REPO / "scripts" / "check_prometheus.py"), *argv],
            capture_output=True, text=True, timeout=60, input=stdin)

    def test_clean_exposition_passes(self):
        result = self._run("-", stdin="# TYPE sealpaa_up gauge\n"
                                      "sealpaa_up 1\n")
        assert result.returncode == 0, result.stderr
        assert "exposition ok" in result.stdout

    def test_broken_exposition_fails_with_problems(self):
        result = self._run("-", stdin="sealpaa_orphan 1\n")
        assert result.returncode == 1
        assert "before any TYPE" in result.stderr

    def test_empty_input_fails(self):
        result = self._run("-", stdin="")
        assert result.returncode == 1
