"""Self-test of the benchmark: a short run of every workload, both modes.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that the reference oracle agrees with the library's exhaustive
enumeration on small chains, then runs each workload for one second
(``explore-mixed`` always completes one whole exploration pass) with
``--trace 0`` and ``--trace 1``.  Each run must print every end-to-end
or per-layer metric with its unit, report no wrong answers, fail only
on the recorded known failures, and keep every per-layer busy time
within the measured wall time.  Exits non-zero on the first violation.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_oracle() -> None:
    """The dense oracle equals distribution-exhaustive on small chains,
    and the checker accepts honest non-exact answers but not wrong ones."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from reference import (HEADLINE, Checker, answer_fields, close,
                           dense_metrics)
    from repro import engine
    from repro.engine import AnalysisRequest
    from workloads import LPAA, profile_vector

    rng = random.Random(0)
    for cell in LPAA + ("accurate",):
        for width in (1, 3, 5):
            p_a = profile_vector(rng, width)
            p_b = profile_vector(rng, width)
            request = AnalysisRequest.distribution(
                cell, width, p_a, p_b, 0.3, kind="error_distribution")
            want = engine.run(request=request,
                              engine="distribution-exhaustive")
            got = dense_metrics(request.cells, request.p_a, request.p_b,
                                request.p_cin)
            for metric in HEADLINE["error_distribution"] + ("mse",):
                if not close(getattr(want, metric), got[metric], metric):
                    raise AssertionError(
                        f"dense oracle disagrees on {cell} w={width} "
                        f"{metric}: {got[metric]} vs {getattr(want, metric)}")
    # Non-exact answers are judged by their declared drift or interval.
    checker = Checker()
    request = AnalysisRequest.distribution("LPAA 5", 12, 0.3, 0.6, 0.5,
                                           kind="med")
    for forced in ("distribution-dp-truncated", "distribution-mc"):
        answer = answer_fields(engine.run(request=request, engine=forced))
        assert not answer["exact"]
        assert checker.verdict(request, answer) == "ok", forced
        answer["med"] *= 1.5
        assert checker.verdict(request, answer) == "wrong", forced


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    from run import END_TO_END_UNITS, WORKLOADS
    from layers import PER_LAYER_UNITS
    from workloads import KNOWN_FAILURES

    check_oracle()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == PER_LAYER_UNITS
    for workload in WORKLOADS:
        for trace, units in ((0, END_TO_END_UNITS), (1, PER_LAYER_UNITS)):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert {k: v["unit"] for k, v in metrics.items()} == units
            if workload == "explore-mixed":
                # The frontier asks each known failure once per run.
                assert result["failed"] == len(KNOWN_FAILURES)
            else:
                assert result["failed"] == 0, (workload, result["failed"])
            if trace:
                wall = metrics["wall_s"]["value"]
                for name, doc in metrics.items():
                    if name.endswith("busy_s") or name.startswith("self."):
                        assert doc["value"] <= wall, (workload, name)
            else:
                for name, doc in metrics.items():
                    assert doc["value"] > 0, (workload, name)
            print(f"ok  {workload} trace={trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
