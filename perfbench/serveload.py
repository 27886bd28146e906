"""Server process control and the asyncio load generator of ``serve-mixed``.

The server is the real ``python -m repro serve`` entry point (or, for
the traced run, :mod:`traced_server`, which wraps a few public calls
and then runs the same entry point).  The generator is one asyncio
process holding at most :data:`CONNECTIONS` keep-alive HTTP/1.1
connections.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Phase 1 load comes over at most two connections, and no more than
#: the host has cores; phase 2 uses one (:func:`closed_loop`).
CONNECTIONS = min(2, os.cpu_count() or 1)
#: The load generator and the servers it starts (which inherit its
#: affinity) share one CPU.  On a shared virtual machine the hypervisor
#: stalls each vCPU now and then; with the request path on one vCPU a
#: request meets about half as many stalls as when the client and the
#: server sit on two, and phase-1 latencies vary less from run to run.
#: The client's own work is small beside the server's.
SERVE_CPUS = ({max(os.sched_getaffinity(0))}
              if hasattr(os, "sched_getaffinity") else set())
#: Phase 1 runs the host-speed probe this long before each request is
#: due, if no request is outstanding then, so the probe sees the host's
#: speed of the moment but neither shares the CPU with the server nor
#: delays a send (the probe takes about 15 ms).
PROBE_LEAD_S = 0.04
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_LISTEN = re.compile(r"serving on http://[\d.]+:(\d+)")


class ServerProcess:
    """One single-worker server over fresh cache directories."""

    def __init__(self, root: Path, workdir: Path, traced: bool = False):
        self.root = root
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.log_path = workdir / "server.log"
        if traced:
            program = [str(root / "perfbench" / "traced_server.py")]
        else:
            program = ["-m", "repro"]
        argv = [sys.executable, *program, "serve", "--port", "0",
                "--cache-dir", str(workdir / "results"),
                "--segment-cache-dir", str(workdir / "segments")]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(argv, cwd=root, env=env,
                                         stdout=log, stderr=log,
                                         stdin=subprocess.DEVNULL)
        self.port: Optional[int] = None
        self.boot_s: Optional[float] = None

    def wait_ready(self) -> float:
        """Block until ``/healthz`` answers; return seconds since spawn."""
        deadline = self.started + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    f"{self.log_path.read_text()[-2000:]}")
            if self.port is None:
                found = _LISTEN.search(self.log_path.read_text())
                if found:
                    self.port = int(found.group(1))
            if self.port is not None and _healthy(self.port):
                return time.perf_counter() - self.started
            time.sleep(0.005)
        raise RuntimeError("server did not become ready")

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set) in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _healthy(port: int) -> bool:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


class Connection:
    """A minimal keep-alive HTTP/1.1 client connection."""

    def __init__(self, port: int):
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> Tuple[int, object]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length)
        return status, json.loads(payload)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass


async def open_loop(port: int, docs: List[Dict[str, object]], rate: float
                    ) -> Dict[str, object]:
    """Phase 1: send ``docs[k]`` at ``t0 + k / rate`` to ``/v1/analyze``.

    Latency is measured from each request's due time, so a stall also
    charges the requests queued behind it; ``late`` is how far behind
    schedule each request was actually written.  ``scale`` is each
    request's host-speed factor (``hostspeed.Gauge``) when it was sent.
    """
    from hostspeed import Gauge

    conns = [Connection(port) for _ in range(CONNECTIONS)]
    for conn in conns:
        await conn.open()
    queue: "asyncio.Queue[Optional[int]]" = asyncio.Queue()
    latency = [0.0] * len(docs)
    late = [0.0] * len(docs)
    replies: List[Tuple[int, object]] = [(0, None)] * len(docs)
    bodies = [json.dumps(doc).encode() for doc in docs]
    gauge = Gauge()
    factors = [0.0] * len(docs)
    outstanding = 0
    loop = asyncio.get_running_loop()
    t0 = loop.time() + 0.05

    async def worker(conn: Connection) -> None:
        nonlocal outstanding
        while True:
            k = await queue.get()
            if k is None:
                return
            due = t0 + k / rate
            late[k] = loop.time() - due
            try:
                replies[k] = await conn.request("POST", "/v1/analyze",
                                                bodies[k])
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                replies[k] = (0, {"error": repr(exc)})
            latency[k] = loop.time() - due
            outstanding -= 1

    workers = [loop.create_task(worker(conn)) for conn in conns]
    for k in range(len(docs)):
        due = t0 + k / rate
        if due - loop.time() > PROBE_LEAD_S:
            await asyncio.sleep(due - PROBE_LEAD_S - loop.time())
        if outstanding == 0 and due - loop.time() > PROBE_LEAD_S / 2:
            gauge.read()
        if due > loop.time():
            await asyncio.sleep(due - loop.time())
        factors[k] = gauge.factor()
        outstanding += 1
        queue.put_nowait(k)
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    wall = loop.time() - t0
    for conn in conns:
        await conn.close()
    return {"latency_s": latency, "late_s": late, "replies": replies,
            "scale": factors, "wall_s": wall}


async def closed_loop(port: int, next_batch, posts: int
                      ) -> Dict[str, object]:
    """Phase 2: *posts* ``/v1/analyze_batch`` posts, back to back on one
    connection.

    One connection, because with two the second document's requests
    reach the server's micro-batcher inside or outside the first one's
    batching window by chance, so the server's batches, and with them
    the work, would differ from run to run.  *next_batch* returns the
    next list of request documents.  Between posts, with the server
    idle, the host-speed probe runs twice; a post's factor is the median
    of the two probes before it and the two after it, so it follows the
    host's speed over the post itself.  ``scaled_s`` is the posts' time,
    each scaled by its factor.
    """
    from statistics import median

    from hostspeed import scale

    probes = [scale(), scale()]
    conn = Connection(port)
    await conn.open()
    loop = asyncio.get_running_loop()
    sent: List[List[Dict[str, object]]] = []
    replies: List[Tuple[int, object]] = []

    wall = scaled = 0.0
    for _ in range(posts):
        batch = next_batch()
        body = json.dumps({"requests": batch}).encode()
        began = loop.time()
        try:
            reply = await conn.request("POST", "/v1/analyze_batch", body)
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            reply = (0, {"error": repr(exc)})
        took = loop.time() - began
        probes += [scale(), scale()]
        sent.append(batch)
        replies.append(reply)
        wall += took
        scaled += took * median(probes[-4:])
    await conn.close()
    return {"sent": sent, "replies": replies, "wall_s": wall,
            "scaled_s": scaled}


async def scrape(port: int) -> Dict[str, object]:
    conn = Connection(port)
    await conn.open()
    try:
        status, doc = await conn.request("GET", "/metrics")
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return doc
