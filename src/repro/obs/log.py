"""Structured logging and progress reporting for long-running loops.

Loggers live under the ``repro`` hierarchy and default to silent (a
`NullHandler` on the root package logger), so the library never spams
stderr unless the application -- usually the CLI via
:func:`configure_logging` -- opts in.

:func:`log_event` renders ``event key=value ...`` lines: greppable,
diffable, and trivially machine-parseable without a JSON logger
dependency.

:class:`Progress` turns a silent million-sample loop into periodic
progress reports.  It is deliberately deterministic -- it reports when
the completed fraction crosses 10% boundaries (not on wall-clock
timers), so test assertions about callback cadence are stable.
"""

from __future__ import annotations

import logging
import sys
from typing import Callable, Optional

#: Root of the package logger hierarchy.
ROOT_LOGGER_NAME = "repro"

logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())

#: ``callback(done, total, label)`` signature for progress consumers.
ProgressCallback = Callable[[int, int, str], None]


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.<name>``)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def format_event(event: str, **fields: object) -> str:
    """Render ``event key=value ...`` with stable field order."""
    parts = [event]
    for key, value in fields.items():
        if isinstance(value, float):
            rendered = f"{value:.6g}"
        else:
            rendered = str(value)
        if " " in rendered:
            rendered = f'"{rendered}"'
        parts.append(f"{key}={rendered}")
    return " ".join(parts)


def log_event(logger: logging.Logger, event: str,
              level: int = logging.INFO, **fields: object) -> None:
    """Emit a structured ``event key=value ...`` record."""
    if logger.isEnabledFor(level):
        logger.log(level, format_event(event, **fields))


def configure_logging(verbosity: int = 0, stream=None) -> None:
    """Wire the ``repro`` logger to *stream* at a verbosity level.

    ``0`` -> WARNING, ``1`` -> INFO, ``>=2`` -> DEBUG.  Replaces any
    handler installed by a previous call (idempotent for the CLI).
    """
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(verbosity, 2)]
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(root.handlers):
        if isinstance(handler, logging.StreamHandler) and not isinstance(
            handler, logging.NullHandler
        ):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname).1s %(name)s: %(message)s")
    )
    root.addHandler(handler)
    root.setLevel(level)


class Progress:
    """Deterministic decile progress reporter for counted loops.

    Calls *callback* (and logs at INFO) every time the completed
    fraction crosses a 10% boundary, plus once at completion.  Safe to
    construct unconditionally: with no callback and logging disabled it
    reduces to two integer comparisons per :meth:`update`.
    """

    __slots__ = ("total", "label", "callback", "_logger", "_done",
                 "_next_decile")

    def __init__(
        self,
        total: int,
        label: str,
        callback: Optional[ProgressCallback] = None,
        logger: Optional[logging.Logger] = None,
    ):
        self.total = max(int(total), 1)
        self.label = label
        self.callback = callback
        self._logger = logger or get_logger("progress")
        self._done = 0
        self._next_decile = 1

    @property
    def done(self) -> int:
        return self._done

    def update(self, n: int = 1) -> None:
        """Advance by *n* completed units."""
        self._done += n
        decile = (10 * self._done) // self.total
        if decile >= self._next_decile:
            self._next_decile = decile + 1
            self._report()

    def _report(self) -> None:
        if self.callback is not None:
            self.callback(self._done, self.total, self.label)
        log_event(
            self._logger, "progress", label=self.label,
            done=self._done, total=self.total,
            pct=round(100.0 * self._done / self.total, 1),
        )

    def finish(self) -> None:
        """Force a final report if the loop ended between deciles."""
        if self._done < self.total:
            self._done = self.total
        if self._next_decile <= 10:
            self._next_decile = 11
            self._report()
