"""Host-speed calibration of the benchmark's timings.

On a shared virtual machine the speed of a vCPU drifts by a third or
more within minutes, as other tenants load the physical cores; the
hypervisor hardly ever takes the vCPU away (steal time stays near 0),
so CPU time drifts with it and does not help.  The benchmark therefore
runs a fixed calibration kernel, which shares nothing with the library,
right before each timed unit (one ``run_batch`` call, one server
request or batch round, one set-up) and reports every time scaled by
``REFERENCE_S / probe``: the time the unit would have taken on a host
where the kernel takes :data:`REFERENCE_S`.  A change to the program
moves the scaled figures as much as the raw ones; a change in host speed
moves the kernel and the unit together and mostly cancels.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque

import numpy as np

#: A timed unit's factor is the median of this many latest probes: one
#: probe that met a burst of other work (a collection, a cache write in
#: the server) would otherwise skew the unit after it.
WINDOW = 3
#: Seconds the kernel takes on the reference host.  Only a unit: the
#: scaled figures read roughly as this host's raw ones do at its
#: calmer moments.
REFERENCE_S = 0.015


def probe() -> float:
    """Seconds one run of the calibration kernel takes now.

    Half interpreter work (loops, dict and list traffic, small-int
    arithmetic), half NumPy element-wise work on a few thousand rows,
    the two kinds of work the library's engines spend their time on.
    The garbage collector is off meanwhile, so the size of the
    program's heap cannot change the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def _kernel() -> float:
    began = time.perf_counter()
    table = {}
    acc = 0
    for i in range(60000):
        key = i & 1023
        acc += table.get(key, i) * 3 % 7
        table[key] = acc
    rows = np.arange(4096, dtype=np.float64) / 4096.0
    state = np.stack([rows, 1.0 - rows, rows * 0.5, 0.25 + rows * 0.5])
    step = np.array([[0.5, 0.25, 0.125, 0.125]] * 4)
    for _ in range(120):
        state = step @ state
        state = state / state.sum(axis=0)
    if acc < 0 or not np.isfinite(state).all():
        raise AssertionError("calibration kernel went wrong")
    return time.perf_counter() - began


def scale() -> float:
    """``REFERENCE_S / probe()``: multiply a time measured now by it."""
    return REFERENCE_S / probe()


class Gauge:
    """Host-speed factor over the latest :data:`WINDOW` probes."""

    def __init__(self) -> None:
        self.probes = deque((scale() for _ in range(WINDOW)), maxlen=WINDOW)

    def factor(self) -> float:
        """The current factor, without a new probe."""
        return statistics.median(self.probes)

    def read(self) -> float:
        """Probe once more, then return the factor."""
        self.probes.append(scale())
        return self.factor()
