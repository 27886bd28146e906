"""``sealpaa dashboard`` -- a stdlib-curses live view over ``/metrics``.

Polls a running ``sealpaa serve`` instance's JSON ``/metrics`` endpoint
(and ``/healthz`` for the SLO verdict) every ``interval`` seconds and
renders the operator signals in one terminal screen:

* throughput (served / batches, requests-per-second since the last
  poll) and shed counters;
* queue depth and batch occupancy (mean and last);
* result-cache tiers (memory/disk hits, hit rate);
* latency quantiles (p50/p95/p99) of the request and batch timers;
* the ``/healthz`` SLO verdict with per-check pass/fail.

The rendering is split from the terminal loop: :func:`render_lines`
turns two snapshots into plain text lines (unit-testable, reused by
``--once`` for non-TTY terminals and CI), while :func:`run_dashboard`
owns the curses screen, keyboard handling (``q`` quits) and polling.
Only the Python standard library is used -- the dashboard must work on
the barest operator box.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, List, Mapping, Optional, Tuple


def fetch_json(url: str, timeout_s: float = 2.0) -> Mapping[str, object]:
    """GET *url* and parse the JSON body (stdlib urllib)."""
    request = urllib.request.Request(
        url, headers={"Accept": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        return json.loads(response.read().decode("utf-8"))


def poll(base_url: str, timeout_s: float = 2.0) -> Dict[str, object]:
    """One dashboard sample: ``/metrics`` plus the ``/healthz`` verdict.

    A 503 from ``/healthz`` (draining) still carries a JSON body; other
    failures surface as an ``error`` entry so the screen can show a
    disconnected state instead of crashing.
    """
    sample: Dict[str, object] = {"ts": time.time()}
    try:
        sample["metrics"] = fetch_json(base_url + "/metrics", timeout_s)
    except (urllib.error.URLError, OSError, ValueError) as exc:
        sample["error"] = str(exc)
        return sample
    try:
        sample["health"] = fetch_json(base_url + "/healthz", timeout_s)
    except urllib.error.HTTPError as exc:
        try:
            sample["health"] = json.loads(exc.read().decode("utf-8"))
        except ValueError:
            sample["health"] = {"status": f"http {exc.code}"}
    except (urllib.error.URLError, OSError, ValueError) as exc:
        sample["health"] = {"status": f"unreachable: {exc}"}
    return sample


def _fmt_ms(seconds: object) -> str:
    return f"{float(seconds) * 1000:8.2f}ms"


def _fmt_rate(value: Optional[float]) -> str:
    return "   --" if value is None else f"{value:5.1%}"


def _timer_line(name: str, stats: Mapping[str, object]) -> str:
    return (f"  {name:<34s} n={int(stats.get('count') or 0):<8d}"
            f" p50={_fmt_ms(stats.get('p50_s', 0.0))}"
            f" p95={_fmt_ms(stats.get('p95_s', 0.0))}"
            f" p99={_fmt_ms(stats.get('p99_s', 0.0))}")


def render_lines(
    sample: Mapping[str, object],
    previous: Optional[Mapping[str, object]] = None,
    base_url: str = "",
) -> List[str]:
    """Turn one poll *sample* (and the *previous* one, for rates) into
    the dashboard's text lines."""
    stamp = time.strftime("%H:%M:%S",
                          time.localtime(float(sample.get("ts", 0.0))))
    lines = [f"sealpaa dashboard  {base_url}  {stamp}"]
    if "error" in sample:
        lines.append("")
        lines.append(f"  UNREACHABLE: {sample['error']}")
        lines.append("")
        lines.append("  (is `sealpaa serve` running at this address?)")
        return lines

    metrics: Mapping[str, object] = sample.get("metrics") or {}
    service: Mapping[str, object] = metrics.get("service") or {}
    timers: Mapping[str, Mapping[str, object]] = metrics.get("timers") or {}
    histograms: Mapping[str, Mapping[str, object]] = (
        metrics.get("histograms") or {})
    health: Mapping[str, object] = sample.get("health") or {}

    served = int(service.get("served") or 0)
    rps = None
    if previous is not None and "metrics" in previous:
        prev_service = previous["metrics"].get("service") or {}  # type: ignore[union-attr]
        dt = float(sample.get("ts", 0.0)) - float(previous.get("ts", 0.0))
        if dt > 0:
            rps = (served - int(prev_service.get("served") or 0)) / dt
    occupancy = histograms.get("serve.batch_occupancy") or {}

    throughput = f"{rps:7.1f}" if rps is not None else "     --"
    lines.append("")
    lines.append(
        f"  health: {health.get('status', '?'):<10s}"
        f"  throughput: {throughput} req/s"
    )
    lines.append(
        f"  served: {served:<10d} batches: "
        f"{int(service.get('batches') or 0):<8d}"
        f" mean batch: {float(service.get('mean_batch_size') or 0.0):6.2f}"
        f" last occupancy: {float(occupancy.get('max') or 0.0):4.0f}"
    )
    shed_rate = service.get("recent_shed_rate")
    lines.append(
        f"  queue depth: {int(service.get('queue_depth') or 0):<6d}"
        f" shed: {int(service.get('shed') or 0):<8d}"
        f" recent shed rate: "
        f"{_fmt_rate(float(shed_rate) if shed_rate is not None else None)}"
        + ("   DRAINING" if service.get("draining") else "")
    )

    cache: Mapping[str, object] = service.get("result_cache") or {}
    if cache:
        lines.append("")
        lines.append("  result cache")
        for tier in ("memory", "disk"):
            tier_doc: Mapping[str, object] = cache.get(tier) or {}
            if not tier_doc:
                continue
            hits = int(tier_doc.get("hits") or 0)
            misses = int(tier_doc.get("misses") or 0)
            rate = hits / (hits + misses) if hits + misses else None
            lines.append(
                f"    {tier:<8s} hits={hits:<10d} misses={misses:<10d}"
                f" hit rate={_fmt_rate(rate)}"
            )

    latency_timers = [
        name for name in timers
        if name.startswith("serve.") or name.startswith("engine.")
    ]
    if latency_timers:
        lines.append("")
        lines.append("  latency (rolling window)")
        for name in sorted(latency_timers):
            lines.append(_timer_line(name, timers[name]))

    checks = (health.get("slo") or {}).get("checks")  # type: ignore[union-attr]
    if checks:
        lines.append("")
        lines.append("  SLO")
        for check in checks:
            status = str(check.get("status"))
            if status in ("disabled", "no_data"):
                detail = f"({status})"
            else:
                detail = (f"{float(check.get('observed', 0.0)):.4g}"
                          f" vs {float(check.get('threshold', 0.0)):.4g}"
                          f"  [{status.upper()}]")
            lines.append(f"    {str(check.get('name')):<18s} {detail}")

    lines.append("")
    lines.append("  q quits; polls every refresh interval")
    return lines


def render_once(base_url: str, timeout_s: float = 2.0) -> str:
    """One non-interactive sample rendered as plain text (``--once``)."""
    sample = poll(base_url, timeout_s)
    return "\n".join(render_lines(sample, base_url=base_url))


def run_dashboard(
    base_url: str,
    interval_s: float = 1.0,
    iterations: Optional[int] = None,
) -> int:
    """The interactive curses loop; returns a process exit code.

    *iterations* bounds the number of polls (used by tests and smoke
    scripts); ``None`` runs until ``q`` or Ctrl-C.  Falls back with a
    helpful message when the terminal cannot host curses.
    """
    try:
        import curses
    except ImportError:  # pragma: no cover - always present on CPython/unix
        print("curses is unavailable; use `sealpaa dashboard --once`")
        return 2

    def loop(screen: "curses._CursesWindow") -> int:
        curses.curs_set(0)
        screen.nodelay(True)
        screen.timeout(int(interval_s * 1000))
        previous: Optional[Mapping[str, object]] = None
        count = 0
        while iterations is None or count < iterations:
            sample = poll(base_url)
            lines = render_lines(sample, previous, base_url=base_url)
            previous = sample
            count += 1
            screen.erase()
            rows, cols = screen.getmaxyx()
            for y, line in enumerate(lines[: rows - 1]):
                screen.addnstr(y, 0, line, cols - 1)
            screen.refresh()
            key = screen.getch()  # doubles as the poll-interval sleep
            if key in (ord("q"), ord("Q")):
                break
        return 0

    try:
        return curses.wrapper(loop)
    except curses.error:
        print("terminal too small or not curses-capable; "
              "use `sealpaa dashboard --once`")
        return 2
