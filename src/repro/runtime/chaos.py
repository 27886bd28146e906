"""Fault injection for the resilience layer itself.

A resilience layer that has never seen a failure is decoration.  This
module provides a :class:`ChaosShim` the test suite (and brave users)
can install to inject the three failure modes the runtime claims to
survive:

* **IO failures** -- :func:`repro.io.atomic_write_text` consults the
  shim before committing a file, so checkpoint/result writes can be made
  to raise ``OSError`` a configurable number of times (transient) or
  forever (dead disk);
* **deadline expiry** -- :meth:`ChaosShim.clock` is a virtual clock that
  only advances when told to, letting tests drive a
  :class:`~repro.runtime.budget.BudgetMeter` past its deadline at an
  exact chunk boundary;
* **mid-run interrupts** -- engines call :func:`tick` at every chunk
  boundary; an armed shim raises ``KeyboardInterrupt`` on the N-th
  tick, simulating a user/scheduler kill between batches.

The serving layer adds two more, exercised in-process against a real
:class:`~repro.serve.AnalysisServer` (``tests/serve/test_chaos_soak.py``):

* **engine faults** -- :func:`engine_call_check` runs before every
  engine dispatch inside :class:`~repro.serve.service.AnalysisService`;
  the shim can fail the first N dispatches, fail every Nth dispatch,
  or delay each one (deadline blowouts on demand);
* **cache read faults** -- :func:`cache_read_check` runs inside
  :meth:`~repro.engine.diskcache.DiskResultStore.get`; an injected
  ``OSError`` must surface as a cache miss, never as a request failure.

Installation is a context manager (:func:`install_chaos`) so a failed
test can never leak chaos into the rest of the suite.  When no shim is
installed every hook is a single ``is None`` check.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator, Optional

_active: Optional["ChaosShim"] = None


class ChaosShim:
    """Programmable failure injector used by the runtime test suite."""

    def __init__(
        self,
        fail_io_times: int = 0,
        interrupt_after_ticks: Optional[int] = None,
        advance_per_tick: float = 0.0,
        fail_engine_times: int = 0,
        engine_fail_every: int = 0,
        engine_delay_s: float = 0.0,
        cache_read_fail_every: int = 0,
    ) -> None:
        #: How many further IO commits should fail (-1 = fail forever).
        self.fail_io_times = fail_io_times
        #: Raise ``KeyboardInterrupt`` on this 1-based tick, if set.
        self.interrupt_after_ticks = interrupt_after_ticks
        #: Virtual seconds the clock jumps at every chunk boundary --
        #: the deterministic way to expire a deadline mid-run.
        self.advance_per_tick = advance_per_tick
        #: How many further engine dispatches should fail (-1 = forever).
        self.fail_engine_times = fail_engine_times
        #: Additionally fail every Nth engine dispatch (0 = never) -- a
        #: steady background failure rate rather than a burst.
        self.engine_fail_every = engine_fail_every
        #: Real seconds to sleep before every engine dispatch (slow
        #: dependency / deadline-blowout injection).
        self.engine_delay_s = engine_delay_s
        #: Raise ``OSError`` on every Nth disk-cache read (0 = never).
        self.cache_read_fail_every = cache_read_fail_every
        self.io_failures_injected = 0
        self.ticks_seen = 0
        self.engine_calls_seen = 0
        self.engine_faults_injected = 0
        self.cache_reads_seen = 0
        self.cache_faults_injected = 0
        self._now = 0.0

    # -- virtual clock -----------------------------------------------------

    def clock(self) -> float:
        """Deterministic clock for ``BudgetMeter(clock=shim.clock)``."""
        return self._now

    def advance_clock(self, seconds: float) -> None:
        """Move the virtual clock forward (e.g. past a deadline)."""
        self._now += seconds

    # -- hook points -------------------------------------------------------

    def maybe_fail_io(self, path: str) -> None:
        """Raise ``OSError`` if IO failures are still armed."""
        if self.fail_io_times == 0:
            return
        if self.fail_io_times > 0:
            self.fail_io_times -= 1
        self.io_failures_injected += 1
        raise OSError(f"chaos: injected IO failure writing {path}")

    def on_tick(self, label: str) -> None:
        """Chunk-boundary hook; may raise ``KeyboardInterrupt``."""
        self.ticks_seen += 1
        self._now += self.advance_per_tick
        if (
            self.interrupt_after_ticks is not None
            and self.ticks_seen >= self.interrupt_after_ticks
        ):
            raise KeyboardInterrupt(
                f"chaos: injected interrupt at {label} "
                f"(tick {self.ticks_seen})"
            )

    def on_engine_call(self, label: str) -> None:
        """Pre-dispatch hook; may sleep, or raise."""
        self.engine_calls_seen += 1
        if self.engine_delay_s > 0:
            time.sleep(self.engine_delay_s)
        burst = self.fail_engine_times != 0
        if burst and self.fail_engine_times > 0:
            self.fail_engine_times -= 1
        periodic = (
            self.engine_fail_every > 0
            and self.engine_calls_seen % self.engine_fail_every == 0
        )
        if burst or periodic:
            self.engine_faults_injected += 1
            raise RuntimeError(
                f"chaos: injected engine failure at {label} "
                f"(call {self.engine_calls_seen})"
            )

    def on_cache_read(self, path: str) -> None:
        """Disk-cache read hook; may raise ``OSError``."""
        self.cache_reads_seen += 1
        if (
            self.cache_read_fail_every > 0
            and self.cache_reads_seen % self.cache_read_fail_every == 0
        ):
            self.cache_faults_injected += 1
            raise OSError(f"chaos: injected cache read failure for {path}")


def get_chaos() -> Optional[ChaosShim]:
    """The currently installed shim, or ``None``."""
    return _active


@contextlib.contextmanager
def install_chaos(shim: ChaosShim) -> Iterator[ChaosShim]:
    """Install *shim* for the duration of the ``with`` block."""
    global _active
    previous = _active
    _active = shim
    try:
        yield shim
    finally:
        _active = previous


def tick(label: str) -> None:
    """Engine chunk-boundary hook (no-op unless a shim is installed)."""
    if _active is not None:
        _active.on_tick(label)


def io_fault_check(path: str) -> None:
    """IO commit hook for :func:`repro.io.atomic_write_text`."""
    if _active is not None:
        _active.maybe_fail_io(path)


def engine_call_check(label: str) -> None:
    """Engine dispatch hook (no-op unless a shim is installed)."""
    if _active is not None:
        _active.on_engine_call(label)


def cache_read_check(path: str) -> None:
    """Disk-cache read hook (no-op unless a shim is installed)."""
    if _active is not None:
        _active.on_cache_read(path)
