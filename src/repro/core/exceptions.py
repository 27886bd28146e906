"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause
while still being able to discriminate failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ProbabilityError(ReproError, ValueError):
    """A probability argument is outside ``[0, 1]`` or has a wrong shape."""


class TruthTableError(ReproError, ValueError):
    """A truth-table definition is malformed (wrong row count, non-bits...)."""


class ChainLengthError(ReproError, ValueError):
    """A multi-bit adder chain has an invalid or inconsistent length."""

    def __init__(self, message: str, length: int | None = None):
        super().__init__(message)
        self.length = length


class RegistryError(ReproError, KeyError):
    """An adder-cell name is unknown to the registry, or already taken."""


class GeArConfigError(ReproError, ValueError):
    """A GeAr (N, R, P) configuration violates the model constraints."""


class NetlistError(ReproError, ValueError):
    """A gate-level netlist is structurally invalid (cycle, missing net...)."""


class SynthesisError(ReproError, RuntimeError):
    """Logic synthesis (Quine-McCluskey / cell construction) failed."""


class AnalysisError(ReproError, RuntimeError):
    """A statistical analysis could not be carried out on the given inputs."""


class SupportLimitError(AnalysisError):
    """An exact distribution DP outgrew its support guard.

    Raised by :func:`repro.core.magnitude.error_pmf` (and friends) when
    the intermediate ``(state, delta)`` support -- for ``error_pmf``,
    the dense delta windows it is about to allocate -- exceeds
    ``max_entries``, and by :func:`repro.core.value_distribution.output_value_pmf` when
    the width exceeds its ``max_width`` guard.  Carries the structured
    context -- *width* of the chain, the offending support size
    (*entries*), the guard that tripped (*limit*) and the DP *stage* --
    so routers and services can degrade (truncate the support, fall back
    to Monte-Carlo) instead of string-matching the message.
    """

    def __init__(
        self,
        message: str,
        width: int | None = None,
        entries: int | None = None,
        limit: int | None = None,
        stage: int | None = None,
    ):
        super().__init__(message)
        self.width = width
        self.entries = entries
        self.limit = limit
        self.stage = stage


class ExplorationError(ReproError, ValueError):
    """A design-space exploration request is inconsistent or infeasible."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is corrupt, missing, or from a different run.

    Raised on resume when the on-disk document cannot be parsed, has the
    wrong format tag, or its configuration fingerprint does not match
    the run being resumed (resuming would silently mix two runs).
    """


class ValidationError(ReproError, RuntimeError):
    """The analytical engine disagrees with its simulation cross-check.

    Carries the structured evidence so callers can log or act on it:
    *analytical* is the recursive P(error), *estimate* the Monte-Carlo
    point estimate and *interval* the ``(lo, hi)`` acceptance interval
    the analytical value fell outside of.
    """

    def __init__(
        self,
        message: str,
        analytical: "float | None" = None,
        estimate: "float | None" = None,
        interval: "tuple[float, float] | None" = None,
    ):
        super().__init__(message)
        self.analytical = analytical
        self.estimate = estimate
        self.interval = interval
