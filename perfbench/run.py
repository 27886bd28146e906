"""End-to-end benchmark of the analysis library and its HTTP service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-uniform --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``workloads.py`` for the generators):

* ``sweep-uniform`` -- closed-loop ER sweep of single-cell chains through
  ``engine.run_batch`` in large fixed-size batches (few distinct cell
  sequences, so large vectorised groups);
* ``explore-mixed`` -- closed-loop design-space exploration through
  ``engine.run_batch``: hybrid chains, error-magnitude kinds and the
  adder zoo, in small batches of mostly distinct questions;
* ``serve-mixed`` -- a ``python -m repro serve`` subprocess with both
  disk tiers mounted, driven open-loop at a fixed rate (phase 1) and
  then closed-loop with batch documents (phase 2).

Every answer is checked against an independent reference outside the
timed window (``reference.py``).  Every time is scaled to a reference
host speed by a calibration kernel run right before the timed unit
(``hostspeed.py``), so that the drift of a shared host's speed cancels.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
-- the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced measurement with ``--trace 1`` (``layers.py``).  Lines
before it are human-readable details, including the tail percentile and
sample count behind ``latency_tail_ms``.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Run artefacts (traces, server scratch directories); git-ignored.
OUT = ROOT / ".perfbench"

WORKLOADS = ("sweep-uniform", "explore-mixed", "serve-mixed")
#: Set-up measurements per run, half before and half after the timed
#: window, so one burst of machine noise cannot move their median.
SETUP_PROBES = 6
#: Latency limit of ``slo_met_ratio``: per ``run_batch`` call for the
#: in-process workloads, per request (from its due time) for serve.
SLO_LIMIT_MS = {"sweep-uniform": 1000.0, "explore-mixed": 1000.0,
                "serve-mixed": 250.0}
#: ``latency_tail_ms`` is the highest percentile that leaves at least
#: :data:`TAIL_BEYOND` samples above it at ``run_seconds`` = 20: fixed
#: per workload, so host speed (and with it the sample count) cannot
#: switch a run to another percentile.  Shorter runs fall back to the
#: highest of :data:`TAIL_FALLBACK` that keeps the rule.
TAIL_PERCENTILE = {"sweep-uniform": 80.0, "explore-mixed": 90.0,
                   "serve-mixed": 90.0}
TAIL_FALLBACK = (90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10
#: The in-process throughput is the median over this many equal parts
#: of the loop (``sweep-uniform``) or over whole passes
#: (``explore-mixed``), so a burst of host noise moves it less.
SEGMENTS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_answers_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "slo_met_ratio": "ratio",
    "answered_ok_ratio": "ratio",
    "exact_answer_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def detail(label: str, doc: object) -> None:
    """A human-readable line before the result line."""
    print(f"{label}: {json.dumps(doc, sort_keys=True)}", flush=True)


def load_library() -> None:
    """Import the library from ``src/`` or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro.engine  # noqa: F401  (registration happens on import)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(workload: str, values: Sequence[float]
         ) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond it)`` for ``latency_tail_ms``."""
    for q in (TAIL_PERCENTILE[workload],) + TAIL_FALLBACK:
        beyond = int(len(values) * (100.0 - q) / 100.0)
        if beyond >= TAIL_BEYOND:
            break
    return q, percentile(values, q), beyond


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# -- in-process workloads -------------------------------------------------------

class Loop:
    """A closed loop of ``run_batch`` calls, checked call by call.

    The clock stops while a call's answers are checked and while the
    host-speed probe runs, so neither costs throughput and nothing
    accumulates across calls.
    """

    def __init__(self) -> None:
        #: Raw seconds of each ``run_batch`` call, and of each whole
        #: iteration (building the call's request list, then the call).
        self.latency_s: List[float] = []
        self.iteration_s: List[float] = []
        #: Host-speed factor (``hostspeed.Gauge``) read before each
        #: call; scaled time = raw time x factor.
        self.scale: List[float] = []
        self.call_traced: List[bool] = []
        self.call_ok: List[bool] = []
        self.call_correct: List[int] = []
        self.answers = 0
        self.exact = 0
        self.wrong = 0
        self.failures: List[Tuple[object, str]] = []
        #: Requests by the size of their ``run_batch`` group (same cell
        #: sequence within one call): the sweeps' input property.
        self.group_sizes = {"1": 0, "2-7": 0, "8-63": 0, "64+": 0}
        #: Process peak RSS after the loop (frontier loops only).
        self.peak_rss_mb: Optional[float] = None

    def scaled_latency_s(self) -> List[float]:
        return [t * f for t, f in zip(self.latency_s, self.scale)]

    def rate(self, calls: Sequence[int]) -> Tuple[float, float]:
        """``(correct answers per scaled second, raw seconds)`` of
        *calls*."""
        scaled = sum(self.iteration_s[k] * self.scale[k] for k in calls)
        return (sum(self.call_correct[k] for k in calls) / scaled,
                sum(self.iteration_s[k] for k in calls))

    def throughput(self, segments: List[Tuple[int, int]]) -> float:
        """Median over call segments of correct answers per second."""
        return median([self.rate(range(first, last))[0]
                       for first, last in segments])


class InProcess:
    """The closed loop shared by ``sweep-uniform`` and ``explore-mixed``."""

    whole_passes = False
    #: Requests asked once per run, each alone, after the timed loop.
    frontier: list = []

    def __init__(self, seed: int):
        from reference import Checker

        self.rng = random.Random(seed)
        self.checker = Checker()
        #: Distinct question (by object) -> every answer to it was right.
        #: The result line counts questions, not repeats of them, so its
        #: ``attempted`` and ``failed`` do not depend on host speed.
        self.outcome: Dict[int, bool] = {}
        self._group_of: Dict[int, object] = {}
        self._sequences: Dict[tuple, int] = {}

    def batches(self):
        """Endless iterator of ``(requests, pass_ends_here)``."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Trigger the library's lazy imports with throwaway questions."""
        from repro import engine
        from repro.engine import AnalysisRequest

        engine.run_batch([
            AnalysisRequest.chain("LPAA 1", 4),
            AnalysisRequest.chain(["LPAA 2", "LPAA 2", "accurate"]),
            AnalysisRequest.distribution("LPAA 1", 4, kind="med"),
            AnalysisRequest.distribution("LPAA 1", 4, kind="mred"),
            AnalysisRequest.zoo("aca1:8:2", kind="med"),
        ])
        engine.clear_cache()

    def segments(self, loop: Loop) -> List[Tuple[int, int]]:
        """Call ranges whose throughputs are medianed: equal parts."""
        n = len(loop.latency_s)
        parts = min(SEGMENTS, n)
        return [(k * n // parts, (k + 1) * n // parts) for k in range(parts)]

    def calls_per_pass(self) -> int:
        return 1 << 60

    def measure_frontier(self) -> Loop:
        loop = Loop()
        for request in self.frontier:
            self.record(loop, [request], *self.call(loop, [request]))
        return loop

    def measure(self, seconds: float, traced_call=None) -> Loop:
        """Closed loop for *seconds* of measured time (whole passes where
        they apply).

        With *traced_call* (a context-manager factory), every other call
        runs inside it, alternating call by call and, for whole passes,
        pass by pass, so traced and untraced calls share the same inputs
        and the same stretch of host noise.
        """
        from hostspeed import Gauge
        from repro import engine

        engine.clear_cache()
        gauge = Gauge()
        loop = Loop()
        per_pass = self.calls_per_pass()
        batches = self.batches()
        clock = 0.0
        for k in itertools.count():
            loop.scale.append(gauge.read())
            began = time.perf_counter()
            requests, pass_end = next(batches)
            traced = traced_call is not None and \
                (k + k // per_pass) % 2 == 0
            if traced:
                with traced_call():
                    outcome = self.call(loop, requests)
            else:
                outcome = self.call(loop, requests)
            loop.iteration_s.append(time.perf_counter() - began)
            clock += loop.iteration_s[-1]
            loop.call_traced.append(traced)
            self.record(loop, requests, *outcome)
            if clock >= seconds and (pass_end or not self.whole_passes):
                break
        return loop

    def call(self, loop: Loop, requests: list):
        """One timed ``run_batch``: ``(kept answers, error)``."""
        from layers import CALL_SPAN
        from repro import engine
        from repro.obs import trace_span

        began = time.perf_counter()
        try:
            with trace_span(CALL_SPAN, requests=len(requests)):
                results = engine.run_batch(requests)
        except Exception as exc:  # a failed call is a measured outcome
            loop.latency_s.append(time.perf_counter() - began)
            return None, f"{type(exc).__name__}: {exc}"
        loop.latency_s.append(time.perf_counter() - began)
        return self.keep(results), None

    def keep(self, results):
        """What the check needs of one call's answers."""
        from reference import answer_fields

        return [answer_fields(result) for result in results]

    def judge(self, requests, kept) -> Tuple[List[bool], int]:
        """Check one call's answers: ``(right per answer, exact count)``."""
        right = []
        exact = 0
        for request, answer in zip(requests, kept):
            right.append(self.checker.verdict(request, answer) != "wrong")
            exact += bool(answer["exact"])
        return right, exact

    def record(self, loop: Loop, requests, kept, error) -> None:
        """Untimed bookkeeping of one call: check it, measure its shape."""
        if kept is None:
            loop.failures.extend((r, error) for r in requests)
            loop.call_ok.append(False)
            loop.call_correct.append(0)
            for request in requests:
                self.outcome[id(request)] = False
            return
        right, exact = self.judge(requests, kept)
        for request, ok in zip(requests, right):
            self.outcome[id(request)] = self.outcome.get(id(request),
                                                         True) and ok
        wrong = len(right) - sum(right)
        loop.answers += len(requests)
        loop.exact += exact
        loop.wrong += wrong
        loop.call_ok.append(wrong == 0)
        loop.call_correct.append(len(requests) - wrong)
        groups: Dict[object, int] = {}
        for request in requests:
            # Group ids per request object: hashing a 64-cell tuple per
            # answer would cost more than the sweep itself.
            key = self._group_of.get(id(request))
            if key is None:
                if request.kind == "chain" and request.block is None:
                    key = self._sequences.setdefault(request.cells,
                                                     len(self._sequences))
                else:
                    key = ("single", id(request))
                self._group_of[id(request)] = key
            groups[key] = groups.get(key, 0) + 1
        for size in groups.values():
            bucket = ("1" if size == 1 else "2-7" if size < 8
                      else "8-63" if size < 64 else "64+")
            loop.group_sizes[bucket] += size


class SweepUniform(InProcess):
    """Closed-loop ER sweep: few cell sequences, large batches."""

    def __init__(self, seed: int):
        super().__init__(seed)
        import numpy as np
        from repro.engine import AnalysisRequest
        from workloads import sweep_pool

        self.pool = [AnalysisRequest.chain(cell, width, p, p, 0.5)
                     for cell, width, p in sweep_pool()]
        self.np_rng = np.random.default_rng(seed)
        self._seen: Dict[Tuple[int, float], str] = {}

    def batches(self):
        from workloads import SWEEP_BATCH

        pool = self.pool
        while True:
            picks = self.np_rng.integers(len(pool), size=SWEEP_BATCH)
            yield [pool[i] for i in picks.tolist()], True

    def keep(self, results):
        return ([result.p_error for result in results],
                sum(result.exact for result in results),
                ",".join(sorted({result.engine for result in results})))

    def judge(self, requests, kept) -> Tuple[List[bool], int]:
        # Identical answers to one pooled question are checked once.
        p_errors, exact, served_by = kept
        right = []
        for request, p_error in zip(requests, p_errors):
            key = (id(request), p_error)
            outcome = self._seen.get(key)
            if outcome is None:
                outcome = self._seen[key] = self.checker.verdict(request, {
                    "p_error": p_error, "exact": True, "engine": served_by})
            else:
                self.checker.tally(outcome, "engine")
            right.append(outcome != "wrong")
        return right, exact


class ExploreMixed(InProcess):
    """Closed-loop design-space exploration in whole passes, then one
    call per known-failure question (the frontier)."""

    whole_passes = True

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.core.adder_zoo import named_zoo
        from workloads import (EXPLORE_ZOO_WIDTH, explore_batches,
                               explore_items, explore_request,
                               frontier_items)

        zoo = [a.config_string for a in named_zoo(EXPLORE_ZOO_WIDTH)]
        self.requests = [explore_request(item)
                         for item in explore_items(self.rng, zoo)]
        self.plan = explore_batches(len(self.requests))
        self.frontier = [explore_request(item)
                         for item in frontier_items(self.rng)]

    def segments(self, loop: Loop) -> List[Tuple[int, int]]:
        """One segment per exploration pass."""
        size = len(self.plan)
        return [(start, start + size)
                for start in range(0, len(loop.latency_s), size)]

    def calls_per_pass(self) -> int:
        return len(self.plan)

    def batches(self):
        while True:
            for k, indices in enumerate(self.plan):
                yield ([self.requests[i] for i in indices],
                       k == len(self.plan) - 1)


IN_PROCESS = {"sweep-uniform": SweepUniform, "explore-mixed": ExploreMixed}


def known_failure(request, error: str) -> bool:
    from workloads import KNOWN_FAILURES

    if not error.startswith("SupportLimitError"):
        return False
    cells = set(request.cell_names)
    return any(request.kind == kind and cells == {cell}
               and request.width == width
               for kind, cell, width in KNOWN_FAILURES)


def setup_probe_times(workload: str, seed: int) -> List[float]:
    """Scaled seconds from process start to ready, over fresh processes."""
    from hostspeed import Gauge

    times = []
    for _ in range(SETUP_PROBES // 2):
        factor = Gauge().factor()
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        line = proc.stdout.readline()
        times.append((time.perf_counter() - began) * factor)
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed ({proc.returncode})")
    return times


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_in_process(workload: str, seed: int, seconds: float, trace: bool
                   ) -> Dict[str, object]:
    setup_times = [] if trace else setup_probe_times(workload, seed)
    bench = IN_PROCESS[workload](seed)
    bench.warm_up()
    if not trace:
        loop = bench.measure(seconds)
        # Read before the frontier, whose failing DPs grow the heap far
        # past the loop's: peak_rss_mb is the exploration's, and the
        # frontier's peak is only reported on the ``shape`` line.
        peak_rss = peak_rss_mb()
        # After the loop: its frees would leave the heap in another state.
        frontier = bench.measure_frontier()
        frontier.peak_rss_mb = peak_rss_mb()
        setup_times += setup_probe_times(workload, seed)
        return summarize_in_process(workload, bench, frontier, loop,
                                    {"setup_s": median(setup_times),
                                     "peak_rss_mb": peak_rss}, setup_times)

    from contextlib import contextmanager

    from layers import registry_counts, span_attribution, wrap_public_calls
    from repro.obs import MetricsRegistry, Tracer, metrics, use_registry, \
        use_tracer

    registry = MetricsRegistry()
    tracer = Tracer()

    @contextmanager
    def traced_call():
        metrics.enable()
        try:
            with use_registry(registry), use_tracer(tracer), \
                    wrap_public_calls():
                yield
        finally:
            metrics.disable()

    loop = bench.measure(seconds, traced_call)
    frontier = bench.measure_frontier()

    def rate(traced: bool) -> Tuple[float, float]:
        return loop.rate([k for k, flag in enumerate(loop.call_traced)
                          if flag == traced])

    traced_rate, traced_wall = rate(True)
    plain_rate, _ = rate(False)
    layers = span_attribution(tracer.roots, traced_wall)
    snapshot = registry.snapshot()
    layers.update(registry_counts(snapshot))
    layers["trace.overhead_ratio"] = traced_rate / plain_rate
    write_trace(workload, seed, {"spans": tracer.to_dict(),
                                 "metrics": snapshot})
    result = summarize_in_process(workload, bench, frontier, loop, {}, [])
    result["layers"] = layers
    return result


def summarize_in_process(workload: str, bench: InProcess, frontier: Loop,
                         loop: Loop, extra: Dict[str, float],
                         setup_times: List[float]) -> Dict[str, object]:
    """Metrics of the loop; counts over the loop and the frontier.

    ``attempted`` and ``failed`` count distinct questions (a question
    fails if any answer to it failed or was wrong), so they are the same
    on every run of a seed, however many passes the host's speed allows.
    """
    answers = frontier.answers + loop.answers
    failures = frontier.failures + loop.failures
    unexpected = [e for r, e in failures if not known_failure(r, e)]
    wrong = frontier.wrong + loop.wrong
    attempted = len(bench.outcome)
    failed = sum(1 for ok in bench.outcome.values() if not ok)
    latency = loop.scaled_latency_s()
    q, tail_value, beyond = tail(workload, latency)
    limit = SLO_LIMIT_MS[workload] / 1000.0
    metrics = {
        "throughput_answers_per_s": loop.throughput(bench.segments(loop)),
        "latency_p50_ms": 1000.0 * percentile(latency, 50.0),
        "latency_tail_ms": 1000.0 * tail_value,
        "slo_met_ratio": sum(1 for ok, lat in zip(loop.call_ok, latency)
                             if ok and lat <= limit) / len(latency),
        "answered_ok_ratio": (attempted - failed) / attempted,
        "exact_answer_ratio": (frontier.exact + loop.exact) / answers,
    }
    metrics.update(extra)
    detail("latency_tail", {"percentile": q, "samples": len(loop.latency_s),
                            "beyond": beyond, "unit": "run_batch call"})
    detail("checks", {"verdicts": bench.checker.counts,
                      "mismatches": bench.checker.mismatches})
    detail("failures", {"known": len(failures) - len(unexpected),
                        "unexpected": unexpected[:5],
                        "answers": answers, "wrong_answers": wrong})
    if setup_times:
        detail("setup_probes_s", setup_times)
    total = sum(loop.group_sizes.values())
    detail("shape", {
        "run_batch_calls": len(loop.latency_s),
        "host_speed_factor_median": median(loop.scale),
        "request_share_by_group_size":
            {k: v / total for k, v in loop.group_sizes.items()},
        "frontier_calls": len(frontier.latency_s),
        "frontier_s": sum(frontier.latency_s),
        "frontier_peak_rss_mb": frontier.peak_rss_mb,
    })
    return {
        "correct": wrong == 0 and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# -- serve-mixed ----------------------------------------------------------------

#: Share of ``--seconds`` spent in the open-loop phase 1.
SERVE_PHASE1_SHARE = 0.75
#: Phase 2 batch posts per second of ``--seconds``: a fixed count (16
#: at ``run_seconds`` = 20, about 8 s on a 2-vCPU host), so every run of
#: a seed posts the same documents however fast the host is; later
#: posts meet fuller caches and cost more.
SERVE_POSTS_PER_S = 0.8


def run_serve(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    import os

    from hostspeed import Gauge
    from serveload import SERVE_CPUS, ServerProcess

    if SERVE_CPUS:
        os.sched_setaffinity(0, SERVE_CPUS)

    scratch = OUT / f"serve-{seed}-{time.time_ns()}"
    servers: List[ServerProcess] = []

    def boot(name: str, traced: bool = False) -> ServerProcess:
        factor = Gauge().factor()
        server = ServerProcess(ROOT, scratch / name, traced=traced)
        servers.append(server)
        server.boot_s = server.wait_ready() * factor
        return server

    try:
        if trace:
            plain = serve_session(boot("plain"), seed, seconds / 2)
            traced = serve_session(boot("traced", traced=True), seed,
                                   seconds / 2)
            result = traced["result"]
            layers = traced["layers"]
            layers["trace.overhead_ratio"] = (
                traced["throughput"] / plain["throughput"])
            for key in ("attempted", "failed"):
                result[key] += plain["result"][key]
            result["correct"] = (result["correct"]
                                 and plain["result"]["correct"])
            write_trace("serve-mixed", seed, traced["scrapes"])
            result["layers"] = layers
            return result
        # Boots before the session (the last of them serves it) and after.
        before = [boot(f"boot{k}") for k in range(SETUP_PROBES // 2)]
        for server in before[:-1]:
            server.stop()
        session = serve_session(before[-1], seed, seconds)
        after = [boot(f"boot{k}")
                 for k in range(SETUP_PROBES // 2, SETUP_PROBES)]
        setup_times = [server.boot_s for server in before + after]
        detail("setup_probes_s", setup_times)
        result = session["result"]
        result["metrics"]["setup_s"] = median(setup_times)
        return result
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)


def serve_session(server, seed: int, seconds: float) -> Dict[str, object]:
    """Phase 1 and phase 2 against a ready *server*, which is then
    stopped; answers are checked after both phases."""
    from layers import serve_attribution
    from repro.core.adder_zoo import named_zoo
    from serveload import closed_loop, open_loop, scrape
    from workloads import (SERVE_BATCH, SERVE_RATE, SERVE_ZOO_WIDTH,
                           ServeDocs)

    rng = random.Random(seed)
    stream = ServeDocs(rng, [a.config_string
                             for a in named_zoo(SERVE_ZOO_WIDTH)])
    phase1_docs = [stream.next()[0] for _ in range(
        int(SERVE_RATE * seconds * SERVE_PHASE1_SHARE))]

    def next_batch():
        return [stream.next()[0] for _ in range(SERVE_BATCH)]

    async def drive():
        one = await open_loop(server.port, phase1_docs, SERVE_RATE)
        scrape1 = await scrape(server.port)
        two = await closed_loop(server.port, next_batch,
                                max(1, round(SERVE_POSTS_PER_S * seconds)))
        scrape2 = await scrape(server.port)
        return one, scrape1, two, scrape2

    one, scrape1, two, scrape2 = asyncio.run(drive())
    peak_rss = server.peak_rss_mb()
    server.stop()

    from reference import Checker

    checker = Checker()
    requests: Dict[str, object] = {}
    limit = SLO_LIMIT_MS["serve-mixed"] / 1000.0

    def judge(doc, status, reply) -> str:
        """``ok``, ``wrong`` or ``failed`` for one document's reply."""
        if status != 200 or not isinstance(reply, dict) or "error" in reply:
            return "failed"
        key = json.dumps(doc, sort_keys=True)
        request = requests.get(key)
        if request is None:
            from repro.serve import parse_analysis_doc

            request = requests[key] = parse_analysis_doc(doc)
        return "wrong" if checker.verdict(request, reply) == "wrong" \
            else "ok"

    answers: List[dict] = []

    def judged(doc, status, reply) -> str:
        outcome = judge(doc, status, reply)
        if outcome != "failed":
            answers.append(reply)
        return outcome

    outcomes1 = [judged(doc, status, reply) for doc, (status, reply)
                 in zip(phase1_docs, one["replies"])]
    outcomes2: List[str] = []
    for batch, (status, reply) in zip(two["sent"], two["replies"]):
        items = reply.get("results") if isinstance(reply, dict) else None
        if status != 200 or not isinstance(items, list) \
                or len(items) != len(batch):
            outcomes2.extend(["failed"] * len(batch))
            continue
        outcomes2.extend(judged(doc, 200, item)
                         for doc, item in zip(batch, items))
    outcomes = outcomes1 + outcomes2
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o != "ok")
    latency = [t * f for t, f in zip(one["latency_s"], one["scale"])]
    q, tail_value, beyond = tail("serve-mixed", latency)
    # One rate over the whole phase: posts differ in cost (later ones
    # meet fuller caches), so no single post stands for the phase.
    throughput = outcomes2.count("ok") / two["scaled_s"]
    metrics = {
        "throughput_answers_per_s": throughput,
        "latency_p50_ms": 1000.0 * percentile(latency, 50.0),
        "latency_tail_ms": 1000.0 * tail_value,
        "slo_met_ratio": sum(1 for o, lat in zip(outcomes1, latency)
                             if o == "ok" and lat <= limit) / len(latency),
        "answered_ok_ratio": (attempted - failed) / attempted,
        "exact_answer_ratio": sum(1 for a in answers if a.get("exact"))
        / max(1, len(answers)),
        "peak_rss_mb": peak_rss,
    }
    detail("latency_tail", {"percentile": q, "samples": len(latency),
                            "beyond": beyond, "unit": "request, from due"})
    detail("checks", {"verdicts": checker.counts,
                      "mismatches": checker.mismatches})
    total = sum(stream.properties.values())
    detail("shape", {
        "phase1_rate_per_s": SERVE_RATE, "phase1_requests": len(latency),
        "phase2_batch_docs": SERVE_BATCH,
        "phase2_batches": len(two["sent"]),
        "host_speed_factor_median": median(one["scale"]),
        "doc_shares": {k: v / total for k, v in stream.properties.items()},
        "hot_first_uses": stream.hot_first_uses,
        "result_cache": scrape2.get("service", {}).get("result_cache"),
        "segment_cache": scrape2.get("service", {}).get("segment_cache"),
        "late_p99_ms": 1000.0 * percentile(one["late_s"], 99.0),
    })
    result = {
        # Serve has no known failures: any refusal or error counts.
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    layers = serve_attribution(scrape2, scrape1,
                               one["wall_s"] + two["wall_s"])
    layers["loadgen.late_p99_ms"] = 1000.0 * percentile(one["late_s"], 99.0)
    return {"result": result, "layers": layers, "throughput": throughput,
            "scrapes": {"after_phase1": scrape1, "after_phase2": scrape2}}


def write_trace(workload: str, seed: int, doc: Dict[str, object]) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}.trace.json"
    path.write_text(json.dumps(doc))
    detail("trace_written", str(path.relative_to(ROOT)))


# -- entry point ----------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds through the ``finally`` blocks that stop servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    load_library()
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        bench = IN_PROCESS[args.workload](args.seed)
        bench.warm_up()
        print("ready", flush=True)
        return 0
    if args.workload == "serve-mixed":
        result = run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_in_process(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    layers = result.pop("layers", None)
    if args.trace:
        from layers import PER_LAYER_UNITS

        detail("self_time_s", {k: v for k, v in layers.items()
                               if k.startswith("self.")})
        chosen = {name: {"value": float(layers.get(name, 0.0)),
                         "unit": unit}
                  for name, unit in PER_LAYER_UNITS.items()}
    else:
        chosen = {name: {"value": float(result["metrics"][name]),
                         "unit": unit}
                  for name, unit in END_TO_END_UNITS.items()}
    result["metrics"] = chosen
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
