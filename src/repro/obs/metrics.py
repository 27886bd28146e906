"""Process-local metrics: counters, gauges, histograms and timers.

The registry is deliberately tiny and dependency-free.  Everything is
built around three rules:

* **near-zero overhead when disabled** -- instrumented call sites guard
  on :func:`is_enabled` (one module-global read) and skip all metric
  work, so the hot analytical loops pay a single boolean check;
* **contextvar scoping** -- the *active* registry lives in a
  `contextvars.ContextVar`, so concurrent runs (threads, asyncio tasks,
  nested CLI invocations in tests) can each collect into their own
  registry via :func:`use_registry` without seeing each other's numbers.
  The default is one shared process-global registry;
* **bounded memory** -- no metric retains unbounded per-sample state.
  Distributions live in :class:`Histogram` (fixed exponential buckets)
  plus, for :class:`Timer`, a deterministic rolling window of the most
  recent samples.

Quantile-accuracy contract
--------------------------

Two estimators coexist, with different guarantees:

* *Rolling-window quantiles* (``Timer.stats()``): exact nearest-rank
  quantiles over the **last** :data:`TIMER_WINDOW` ``observe()`` calls
  in this process.  Deterministic -- the window is the most recent N
  samples, never a random reservoir -- so repeated runs of the same
  workload report identical quantiles.
* *Bucketed quantiles* (``Histogram.quantile()``): the sample count
  per exponential bucket is exact; a quantile is reported as the
  geometric midpoint of its bucket, so the relative error of any
  reported quantile is bounded by ``sqrt(HISTOGRAM_FACTOR)`` (about
  +/-19% with the default ``sqrt(2)`` spacing).  Only the position
  *within* a bucket is approximate.

Snapshot documents are plain JSON (``sealpaa-metrics-v1``) so they can
be written by ``--metrics-out``, re-read by ``sealpaa obs``, scraped
from ``sealpaa serve``'s ``/metrics``, and rendered to Prometheus text
exposition by :mod:`repro.obs.prometheus`.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

METRICS_FORMAT = "sealpaa-metrics-v1"

#: Rolling-window capacity per timer: the most recent N samples, kept
#: for exact short-horizon quantiles (p50/p95/p99 of *recent* traffic).
#: Deterministic by construction -- last-N, not a random reservoir --
#: and a hard memory cap: 2048 floats (16 KiB) per timer, however long
#: the process lives.
TIMER_WINDOW = 2048

#: Smallest bucket upper bound of the default exponential ladder, in
#: the metric's native unit (seconds for timers): 1 microsecond.
HISTOGRAM_MIN = 1e-6

#: Ratio between consecutive bucket bounds.  ``sqrt(2)`` bounds the
#: relative error of any bucketed quantile by ``2**0.25`` (~19%).
HISTOGRAM_FACTOR = 2.0 ** 0.5

#: Number of finite buckets: 56 half-octaves span 1 us .. ~268 s; an
#: implicit overflow bucket (``+Inf``) catches everything beyond.
HISTOGRAM_BUCKETS = 56

#: The default bucket upper bounds (``le`` values, ascending).
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    HISTOGRAM_MIN * HISTOGRAM_FACTOR ** i for i in range(HISTOGRAM_BUCKETS)
)


class Counter:
    """Monotonically increasing integer counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def add(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Last-write-wins scalar (e.g. a frontier size)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket exponential histogram with exact counts.

    Buckets follow the Prometheus classic-histogram convention: bucket
    ``i`` counts observations ``<= bounds[i]``; one implicit overflow
    bucket catches values above the last bound.  Per-bucket counts and
    the count/sum/min/max scalars are exact.

    Memory is a fixed ``len(bounds) + 1`` integers per histogram no
    matter how many observations arrive.
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS):
        if not bounds or list(bounds) != sorted(float(b) for b in bounds):
            raise ValueError("bucket bounds must be non-empty and ascending")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # + overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe)."""
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is overflow."""
        with self._lock:
            return list(self._counts)

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs.

        The final pair is ``(inf, total_count)`` -- the ``+Inf`` bucket.
        """
        with self._lock:
            counts = list(self._counts)
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), running + counts[-1]))
        return pairs

    def _quantile_locked(self, counts: List[int], q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = q * (self._count - 1)
        running = 0
        for index, count in enumerate(counts):
            running += count
            if running > rank:
                break
        else:
            index = len(counts) - 1
        if index >= len(self.bounds):  # overflow bucket
            estimate = self._max
        else:
            hi = self.bounds[index]
            lo = (self.bounds[index - 1] if index
                  else hi / HISTOGRAM_FACTOR)
            # geometric midpoint: relative error <= sqrt(factor)
            estimate = (lo * hi) ** 0.5
        return min(max(estimate, self._min), self._max)

    def quantile(self, q: float) -> float:
        """Bucketed quantile estimate (see the module accuracy contract)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
        return self._quantile_locked(counts, q)

    def stats(self) -> Dict[str, float]:
        """Aggregate view: count/total plus bucketed p50/p95/p99."""
        with self._lock:
            count = self._count
            total = self._sum
            lo = self._min
            hi = self._max
            counts = list(self._counts)
        if count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": count,
            "total": total,
            "min": lo,
            "mean": total / count,
            "p50": self._quantile_locked(counts, 0.50),
            "p95": self._quantile_locked(counts, 0.95),
            "p99": self._quantile_locked(counts, 0.99),
            "max": hi,
        }

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready document: stats plus non-empty cumulative buckets."""
        doc: Dict[str, object] = self.stats()
        buckets = [
            [bound if bound != float("inf") else "+Inf", cumulative]
            for bound, cumulative in self.cumulative_buckets()
        ]
        total = buckets[-1][1]  # the +Inf cumulative count
        if total == 0:
            doc["buckets"] = []
            return doc
        # Trim the empty head and the saturated tail: keep the span of
        # buckets that actually discriminate, plus the final +Inf total
        # (cumulative counts stay self-describing either way).
        first = next(i for i, (_, c) in enumerate(buckets) if c)
        last = next(i for i, (_, c) in enumerate(buckets) if c == total)
        doc["buckets"] = buckets[first:last + 1] + (
            [buckets[-1]] if last < len(buckets) - 1 else [])
        return doc


class Timer:
    """Duration metric: exact scalars, bucketed whole-run distribution,
    and a deterministic rolling window for exact recent quantiles.

    ``stats()`` quantiles are nearest-rank over the **last**
    :data:`TIMER_WINDOW` samples -- an exact description of recent
    behaviour (the window the serving layer's SLO evaluation reads).
    The embedded :class:`Histogram` carries the whole-run distribution
    in bounded memory.
    """

    __slots__ = ("name", "_hist", "_window", "_window_pos", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._hist = Histogram(name)
        self._window: List[float] = []
        self._window_pos = 0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one duration in seconds."""
        seconds = float(seconds)
        self._hist.observe(seconds)
        with self._lock:
            if len(self._window) < TIMER_WINDOW:
                self._window.append(seconds)
            else:
                self._window[self._window_pos] = seconds
                self._window_pos = (self._window_pos + 1) % TIMER_WINDOW

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager recording the elapsed wall time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)

    @property
    def count(self) -> int:
        return self._hist.count

    @property
    def total(self) -> float:
        return self._hist.sum

    @property
    def histogram(self) -> Histogram:
        """The bounded whole-run distribution behind this timer."""
        return self._hist

    @staticmethod
    def _quantile(ordered: List[float], q: float) -> float:
        """Nearest-rank quantile of a pre-sorted sample list."""
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def stats(self) -> Dict[str, float]:
        """Count/total/min/mean/max (exact, whole run) + p50/p95/p99
        (exact nearest-rank over the rolling window)."""
        hist_stats = self._hist.stats()
        with self._lock:
            ordered = sorted(self._window)
        count = int(hist_stats["count"])
        if count == 0:
            return {"count": 0, "total_s": 0.0, "min_s": 0.0, "mean_s": 0.0,
                    "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0, "max_s": 0.0}
        return {
            "count": count,
            "total_s": hist_stats["total"],
            "min_s": hist_stats["min"],
            "mean_s": hist_stats["mean"],
            "p50_s": self._quantile(ordered, 0.50),
            "p95_s": self._quantile(ordered, 0.95),
            "p99_s": self._quantile(ordered, 0.99),
            "max_s": hist_stats["max"],
        }

    def snapshot(self) -> Dict[str, object]:
        """``stats()`` plus the cumulative bucket pairs, JSON-ready."""
        doc: Dict[str, object] = dict(self.stats())
        hist_doc = self._hist.snapshot()
        doc["buckets"] = hist_doc["buckets"]
        return doc


class MetricsRegistry:
    """A named collection of counters, gauges, histograms and timers."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
                  ) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    def timer(self, name: str) -> Timer:
        with self._lock:
            metric = self._timers.get(name)
            if metric is None:
                metric = self._timers[name] = Timer(name)
        return metric

    def reset(self) -> None:
        """Drop every metric (used between runs / tests)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._timers.clear()

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready ``sealpaa-metrics-v1`` document of all metrics."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            timers = dict(self._timers)
        return {
            "format": METRICS_FORMAT,
            "counters": {k: c.value for k, c in sorted(counters.items())},
            "gauges": {k: g.value for k, g in sorted(gauges.items())},
            "histograms": {k: h.snapshot()
                           for k, h in sorted(histograms.items())},
            "timers": {k: t.snapshot() for k, t in sorted(timers.items())},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)


#: The process-global default registry.
GLOBAL_REGISTRY = MetricsRegistry()

_registry_var: ContextVar[MetricsRegistry] = ContextVar(
    "sealpaa_metrics_registry", default=GLOBAL_REGISTRY
)

#: Collection switch; kept as a plain module global so the disabled-path
#: cost at instrumented call sites is one function call + one bool read.
_enabled = False


def is_enabled() -> bool:
    """``True`` when metric collection is switched on."""
    return _enabled


def enable() -> None:
    """Switch metric collection on (process-wide)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Switch metric collection off (instrumentation becomes free)."""
    global _enabled
    _enabled = False


def get_registry() -> MetricsRegistry:
    """The registry active in the current context."""
    return _registry_var.get()


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope *registry* as the active one for the enclosed block.

    Context-local: other threads / contexts keep their own registry.
    """
    token = _registry_var.set(registry)
    try:
        yield registry
    finally:
        _registry_var.reset(token)


# -- cheap module-level helpers used by instrumented code ----------------------

def inc(name: str, n: int = 1) -> None:
    """Add *n* to counter *name* (no-op while disabled)."""
    if _enabled:
        get_registry().counter(name).add(n)


def set_gauge(name: str, value: float) -> None:
    """Set gauge *name* (no-op while disabled)."""
    if _enabled:
        get_registry().gauge(name).set(value)


def observe(name: str, seconds: float) -> None:
    """Record a duration on timer *name* (no-op while disabled)."""
    if _enabled:
        get_registry().timer(name).observe(seconds)


def observe_histogram(name: str, value: float) -> None:
    """Record *value* on histogram *name* (no-op while disabled)."""
    if _enabled:
        get_registry().histogram(name).observe(value)


class _NullTimerContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_TIMER = _NullTimerContext()


class _TimerContext:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer: Timer):
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.observe(time.perf_counter() - self._start)


def timed(name: str):
    """``with timed("stage"):`` -- records wall time when enabled,
    otherwise returns a shared no-op context."""
    if not _enabled:
        return _NULL_TIMER
    return _TimerContext(get_registry().timer(name))


def snapshot_to_json(path: str, registry: Optional[MetricsRegistry] = None,
                     ) -> Mapping[str, object]:
    """Write the active (or given) registry snapshot to *path*."""
    reg = registry if registry is not None else get_registry()
    doc = reg.snapshot()
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    return doc
