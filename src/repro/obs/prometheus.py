"""Prometheus text exposition for ``sealpaa-metrics-v1`` snapshots.

Renders the JSON snapshot produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` in the classic
Prometheus text format (``text/plain; version=0.0.4``), so a standard
Prometheus scraper can point at ``sealpaa serve``'s ``/metrics``
endpoint with ``Accept: text/plain`` and ingest:

* counters  -> ``<name>_total`` with ``# TYPE ... counter``;
* gauges    -> ``<name>`` with ``# TYPE ... gauge``;
* timers    -> ``<name>_seconds`` classic histograms (cumulative
  ``_bucket{le="..."}`` series, ``_sum``, ``_count``), rendered from the
  timer's bounded backing histogram;
* histograms -> ``<name>`` classic histograms (unit-less).

Metric names are sanitised to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): dots, dashes and spaces become
underscores, so ``engine.cache.disk.hits`` is exposed as
``sealpaa_engine_cache_disk_hits_total``.  Every exposed name carries the
``sealpaa_`` prefix to namespace the scrape.

The renderer works from the *snapshot document*, not live metric
objects, so it serves equally for the in-process registry and for
snapshots read back from ``--metrics-out`` files.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Sequence

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_PREFIX = "sealpaa_"
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_FIRST = re.compile(r"^[^a-zA-Z_:]")


def sanitize_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus name grammar.

    >>> sanitize_name("engine.cache.disk.hits")
    'sealpaa_engine_cache_disk_hits'
    >>> sanitize_name("serve.http./healthz")
    'sealpaa_serve_http__healthz'
    """
    cleaned = _INVALID_CHARS.sub("_", name)
    if _INVALID_FIRST.match(cleaned):
        cleaned = "_" + cleaned
    return _NAME_PREFIX + cleaned


def _format_value(value: float) -> str:
    """Prometheus sample-value spelling (integers stay integral)."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _le_label(bound: object) -> str:
    if bound == "+Inf" or (isinstance(bound, float) and math.isinf(bound)):
        return "+Inf"
    return _format_value(float(bound))


def _render_histogram_family(
    name: str,
    doc: Mapping[str, object],
    lines: List[str],
    help_text: str,
) -> None:
    """Append one classic-histogram family (TYPE/HELP + series)."""
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} histogram")
    buckets = doc.get("buckets") or []
    count = int(doc.get("count") or 0)
    total = float(doc.get("total") or 0.0)
    saw_inf = False
    for bound, cumulative in buckets:
        label = _le_label(bound)
        saw_inf = saw_inf or label == "+Inf"
        lines.append(
            f'{name}_bucket{{le="{label}"}} {_format_value(cumulative)}'
        )
    if not saw_inf:
        lines.append(f'{name}_bucket{{le="+Inf"}} {_format_value(count)}')
    lines.append(f"{name}_sum {_format_value(total)}")
    lines.append(f"{name}_count {_format_value(count)}")


def _timer_histogram_doc(stats: Mapping[str, object]) -> Dict[str, object]:
    """Adapt a timer stats/snapshot doc to the histogram-doc shape."""
    return {
        "count": stats.get("count", 0),
        "total": stats.get("total_s", stats.get("total", 0.0)),
        "buckets": stats.get("buckets") or [],
    }


def render_prometheus(snapshot: Mapping[str, object]) -> str:
    """Render a ``sealpaa-metrics-v1`` snapshot as exposition text.

    The returned string ends with a newline, as the format requires.

    >>> doc = {"counters": {"engine.requests": 3},
    ...        "gauges": {}, "histograms": {}, "timers": {}}
    >>> print(render_prometheus(doc), end="")
    # HELP sealpaa_engine_requests_total cumulative count of engine.requests
    # TYPE sealpaa_engine_requests_total counter
    sealpaa_engine_requests_total 3
    """
    lines: List[str] = []
    counters: Mapping[str, object] = snapshot.get("counters") or {}
    for raw_name in sorted(counters):
        name = sanitize_name(raw_name) + "_total"
        lines.append(
            f"# HELP {name} cumulative count of {raw_name}"
        )
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_format_value(float(counters[raw_name]))}")

    gauges: Mapping[str, object] = snapshot.get("gauges") or {}
    for raw_name in sorted(gauges):
        name = sanitize_name(raw_name)
        lines.append(f"# HELP {name} last value of {raw_name}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(float(gauges[raw_name]))}")

    histograms: Mapping[str, object] = snapshot.get("histograms") or {}
    for raw_name in sorted(histograms):
        _render_histogram_family(
            sanitize_name(raw_name), histograms[raw_name], lines,
            f"distribution of {raw_name}",
        )

    timers: Mapping[str, object] = snapshot.get("timers") or {}
    for raw_name in sorted(timers):
        name = sanitize_name(raw_name)
        if not name.endswith("_seconds"):  # avoid foo_seconds_seconds
            name += "_seconds"
        _render_histogram_family(
            name, _timer_histogram_doc(timers[raw_name]), lines,
            f"duration of {raw_name} in seconds",
        )
    return "\n".join(lines) + "\n" if lines else "\n"


def lint_exposition(text: str) -> List[str]:
    """Validate exposition text; return a list of problems (empty = ok).

    A deliberately small linter covering the invariants the CI smoke
    job cares about: name grammar, TYPE-before-samples, cumulative and
    ``+Inf``-terminated histogram buckets, ``_sum``/``_count`` presence,
    and parseable sample values.
    """
    problems: List[str] = []
    name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    sample_re = re.compile(
        r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)(\s+\d+)?$"
    )
    typed: Dict[str, str] = {}
    bucket_state: Dict[str, List[float]] = {}
    bucket_last: Dict[str, float] = {}

    def family_of(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix):
                return name[: -len(suffix)]
        return name

    if text and not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not name_re.match(parts[2]):
                problems.append(f"line {lineno}: malformed comment: {line!r}")
                continue
            if parts[1] == "TYPE":
                if len(parts) < 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    problems.append(
                        f"line {lineno}: unknown TYPE in: {line!r}")
                else:
                    typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = sample_re.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name = match.group("name")
        family = family_of(name)
        declared = typed.get(name) or typed.get(family)
        if declared is None:
            problems.append(
                f"line {lineno}: sample {name!r} before any TYPE line")
        value_text = match.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf")
                          .replace("-Inf", "-inf"))
        except ValueError:
            problems.append(
                f"line {lineno}: bad sample value {value_text!r}")
            continue
        if name.endswith("_bucket") and declared == "histogram":
            labels = match.group("labels") or ""
            le_match = re.search(r'le="([^"]+)"', labels)
            if not le_match:
                problems.append(
                    f"line {lineno}: histogram bucket without le label")
                continue
            le_text = le_match.group(1)
            le = float("inf") if le_text == "+Inf" else float(le_text)
            prev = bucket_last.get(family)
            if prev is not None and value < prev:
                problems.append(
                    f"line {lineno}: non-cumulative bucket in {family}")
            bucket_last[family] = value
            bucket_state.setdefault(family, []).append(le)
    for family, les in bucket_state.items():
        if not any(math.isinf(le) for le in les):
            problems.append(f"histogram {family} missing +Inf bucket")
        if les != sorted(les):
            problems.append(f"histogram {family} buckets not ascending")
    return problems


def assert_valid_exposition(text: str) -> None:
    """Raise ``ValueError`` listing every lint problem, if any."""
    problems = lint_exposition(text)
    if problems:
        raise ValueError(
            "invalid Prometheus exposition:\n  " + "\n  ".join(problems)
        )
