"""Pinned performance trajectory: write and compare bench headline numbers.

The pytest-benchmark timings are great for local A/B runs but drift with
every runner; what the repo pins instead is a small JSON document of
*headline* metrics per benchmark (requests/second, speedup factors,
wall seconds) written by the benches themselves.  Committed baselines
(``BENCH_serve.json``, ``BENCH_prefix.json`` and the other
``BENCH_*.json`` files at the repo root) plus this module's comparison
helper make a >20% regression visible in review instead of vanishing
into CI noise.

Document schema (``sealpaa-bench-v1``)::

    {
      "format": "sealpaa-bench-v1",
      "benchmark": "serve_throughput",
      "metrics": [
        {"metric": "batched_rps", "value": 812.4, "unit": "req/s",
         "higher_is_better": true},
        ...
      ],
      "run": {"python": "3.11.7", "platform": "linux",
              "cpu_count": 8, "created_at": "2026-08-08T12:00:00Z"}
    }

``higher_is_better`` makes the comparison direction-aware: a throughput
drop and a latency rise are both regressions.

Library use (the benches)::

    from bench_trajectory import metric, write_trajectory
    write_trajectory("BENCH_serve.json", "serve_throughput", [
        metric("batched_rps", rps, unit="req/s"),
    ])

CLI use (review / CI)::

    python scripts/bench_trajectory.py show BENCH_serve.json
    python scripts/bench_trajectory.py compare BENCH_serve.json new.json

``compare`` exits 1 when any shared metric regressed by more than the
threshold (default 20%).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Mapping, Optional, Sequence

BENCH_FORMAT = "sealpaa-bench-v1"

#: Relative change beyond which ``compare`` flags a regression.  20%
#: rides well above runner-to-runner noise for these macro benches while
#: still catching a lost vectorisation or an accidental O(n^2).
DEFAULT_THRESHOLD = 0.20


def metric(
    name: str,
    value: float,
    unit: str = "",
    higher_is_better: bool = True,
) -> Dict[str, object]:
    """One trajectory entry; benches build their list out of these."""
    if not name:
        raise ValueError("metric name must be non-empty")
    return {
        "metric": str(name),
        "value": float(value),
        "unit": str(unit),
        "higher_is_better": bool(higher_is_better),
    }


def run_metadata() -> Dict[str, object]:
    """Provenance for a trajectory document: enough to judge whether two
    documents are comparable at all (a 1-core container vs an 8-core
    workstation is a hardware delta, not a code regression)."""
    return {
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_trajectory(
    path: str,
    benchmark: str,
    metrics: Sequence[Mapping[str, object]],
) -> Dict[str, object]:
    """Write a ``sealpaa-bench-v1`` document to *path* and return it."""
    names = [m["metric"] for m in metrics]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate metric names: {names}")
    doc: Dict[str, object] = {
        "format": BENCH_FORMAT,
        "benchmark": str(benchmark),
        "metrics": [dict(m) for m in metrics],
        "run": run_metadata(),
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc


def load_trajectory(path: str) -> Dict[str, object]:
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("format") != BENCH_FORMAT:
        raise ValueError(
            f"{path}: not a {BENCH_FORMAT} document "
            f"(format={doc.get('format') if isinstance(doc, dict) else None!r})"
        )
    return doc


def compare(
    baseline: Mapping[str, object],
    current: Mapping[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Dict[str, object]]:
    """Direction-aware comparison of two trajectory documents.

    Returns one row per metric present in *both* documents, each with a
    ``status`` of ``ok``, ``improved`` or ``regressed``; ``regressed``
    means the value moved in the *bad* direction (per
    ``higher_is_better``) by more than *threshold* relative to the
    baseline.  Metrics present on only one side are reported as
    ``added``/``removed`` and never fail the comparison.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    base = {m["metric"]: m for m in baseline.get("metrics", [])}
    cur = {m["metric"]: m for m in current.get("metrics", [])}
    rows: List[Dict[str, object]] = []
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            rows.append({"metric": name, "status": "removed",
                         "baseline": base[name]["value"]})
            continue
        if name not in base:
            rows.append({"metric": name, "status": "added",
                         "current": cur[name]["value"]})
            continue
        b = float(base[name]["value"])
        c = float(cur[name]["value"])
        higher = bool(base[name].get("higher_is_better", True))
        # Signed relative change in the *good* direction.
        if b == 0:
            change = 0.0 if c == 0 else float("inf") * (1 if c > b else -1)
        else:
            change = (c - b) / abs(b)
        if not higher:
            change = -change
        if change < -threshold:
            status = "regressed"
        elif change > threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append({
            "metric": name, "status": status, "baseline": b, "current": c,
            "change": change, "unit": base[name].get("unit", ""),
        })
    return rows


def regressions(rows: Sequence[Mapping[str, object]]) -> List[Mapping[str, object]]:
    return [row for row in rows if row["status"] == "regressed"]


def _cmd_show(args: argparse.Namespace) -> int:
    doc = load_trajectory(args.file)
    run = doc.get("run") or {}
    print(f"{doc['benchmark']}  ({run.get('created_at', '?')}, "
          f"py{run.get('python', '?')}, {run.get('cpu_count', '?')} cpus)")
    for m in doc["metrics"]:
        arrow = "higher" if m.get("higher_is_better", True) else "lower"
        print(f"  {m['metric']:<28s} {m['value']:>14.4f} {m.get('unit', ''):<8s}"
              f" ({arrow} is better)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = load_trajectory(args.baseline)
    current = load_trajectory(args.current)
    rows = compare(baseline, current, threshold=args.threshold)
    for row in rows:
        if row["status"] in ("added", "removed"):
            print(f"  {row['metric']:<28s} {row['status']}")
            continue
        print(f"  {row['metric']:<28s} {row['baseline']:>12.4f} -> "
              f"{row['current']:>12.4f}  ({row['change']:+.1%})  "
              f"{row['status'].upper()}")
    bad = regressions(rows)
    if bad:
        print(f"{len(bad)} metric(s) regressed beyond "
              f"{args.threshold:.0%}", file=sys.stderr)
        return 1
    print("no regressions beyond the threshold")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="write/compare sealpaa benchmark trajectory documents"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="pretty-print one trajectory document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser(
        "compare",
        help="compare a fresh document against a pinned baseline; exit 1 "
             "on a >threshold regression",
    )
    p.add_argument("baseline", help="the committed BENCH_*.json")
    p.add_argument("current", help="the freshly produced document")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="relative regression tolerance (default 0.20)")
    p.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
