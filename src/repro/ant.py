"""Algorithmic Noise Tolerance (ANT) around approximate adders.

Paper §2.1 lists ANT (Hegde & Shanbhag, ref [9]) among the architectures
that tolerate arithmetic error: a *main* block that is fast/cheap but
error-prone runs next to a *reduced-precision replica* that is exact but
truncated; when the two disagree by more than a threshold, the replica's
estimate replaces the main output.

Here the main block is any of this library's approximate adder chains
and the replica is an exact adder on the operands with their low
``truncation_bits`` dropped.  The decisive property -- which plain LPAAs
lack -- is a **hard worst-case error bound**:

* replica path: ``|replica - exact| <= 2*(2^k - 1) + 1`` (pure
  truncation, ``k = truncation_bits``);
* main path: accepted only when ``|main - replica| <= threshold``, so
  ``|main - exact| <= threshold + 2*(2^k - 1) + 1``.

:meth:`AntAdder.worst_case_error_bound` returns that bound and the tests
verify it exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .core.bitplanes import bernoulli_planes, planes_to_values
from .core.exceptions import AnalysisError, ChainLengthError
from .core.metrics import QualityMetrics, metrics_from_samples
from .core.recursive import CellSpec, resolve_chain
from .simulation.functional import ripple_add, ripple_add_array


@dataclass(frozen=True)
class AntResult:
    """One ANT addition outcome."""

    value: int
    used_replica: bool
    main_value: int
    replica_value: int


class AntAdder:
    """An ANT-protected approximate adder.

    Parameters
    ----------
    width:
        Operand width N of the main adder.
    main_cell:
        The approximate chain of the main block (any cell spec or
        per-stage list).
    truncation_bits:
        ``k``: the replica adds ``a >> k`` and ``b >> k`` exactly and
        scales back, so it is a cheap (N-k)-bit exact adder.
    threshold:
        Disagreement level above which the replica output is used.
        Defaults to ``2^(k+1)`` -- just above the replica's own maximum
        truncation error, so a healthy main block is never overridden
        spuriously by more than the inherent estimate fuzz.
    """

    def __init__(
        self,
        width: int,
        main_cell: Union[CellSpec, Sequence[CellSpec]],
        truncation_bits: int,
        threshold: Optional[int] = None,
    ):
        if width < 1:
            raise ChainLengthError(f"width must be >= 1, got {width}", width)
        if not 0 <= truncation_bits <= width:
            raise AnalysisError(
                f"truncation_bits must be in [0, {width}], got "
                f"{truncation_bits}"
            )
        self._width = width
        self._cells = resolve_chain(main_cell, width)
        self._k = truncation_bits
        self._threshold = (
            threshold if threshold is not None else 1 << (truncation_bits + 1)
        )
        if self._threshold < 0:
            raise AnalysisError(f"threshold must be >= 0, got {threshold}")

    @property
    def width(self) -> int:
        """Main adder width."""
        return self._width

    @property
    def truncation_bits(self) -> int:
        """Replica truncation ``k``."""
        return self._k

    @property
    def threshold(self) -> int:
        """Main/replica disagreement threshold."""
        return self._threshold

    def replica_error_bound(self) -> int:
        """Max |replica - exact|: ``2*(2^k - 1) + 1`` (two truncated
        operands plus the dropped carry-in)."""
        return 2 * ((1 << self._k) - 1) + 1

    def worst_case_error_bound(self) -> int:
        """Hard bound on |output - exact| for any input."""
        return self._threshold + self.replica_error_bound()

    # -- functional ------------------------------------------------------------------

    def _replica(self, a: int, b: int) -> int:
        return (((a >> self._k) + (b >> self._k)) << self._k)

    def add(self, a: int, b: int, cin: int = 0) -> AntResult:
        """One protected addition."""
        main = ripple_add(self._cells, a, b, cin, self._width)
        replica = self._replica(a, b)
        use_replica = abs(main - replica) > self._threshold
        return AntResult(
            value=replica if use_replica else main,
            used_replica=use_replica,
            main_value=main,
            replica_value=replica,
        )

    def add_array(
        self,
        a: np.ndarray,
        b: np.ndarray,
        cin: Union[int, np.ndarray] = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`add`: returns ``(values, used_replica)``."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        main = ripple_add_array(self._cells, a, b, cin, self._width)
        replica = ((a >> self._k) + (b >> self._k)) << self._k
        use_replica = np.abs(main - replica) > self._threshold
        return np.where(use_replica, replica, main), use_replica


def ant_quality_experiment(
    width: int,
    main_cell: Union[CellSpec, Sequence[CellSpec]],
    truncation_bits: int,
    p: float = 0.5,
    samples: int = 200_000,
    seed: Optional[int] = None,
    threshold: Optional[int] = None,
) -> Tuple[QualityMetrics, QualityMetrics, float]:
    """Compare the raw main adder against its ANT-protected version.

    Returns ``(main_metrics, ant_metrics, replica_usage_rate)`` over
    random operands whose bits are 1 with probability *p*.
    """
    if samples < 1:
        raise AnalysisError(f"samples must be >= 1, got {samples}")
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"p must be in [0, 1], got {p}")
    adder = AntAdder(width, main_cell, truncation_bits, threshold=threshold)
    planes = bernoulli_planes(np.random.default_rng(seed), [p] * (2 * width),
                              samples)
    a = planes_to_values(planes[:width], samples)
    b = planes_to_values(planes[width:], samples)
    exact = a + b
    main = ripple_add_array(adder._cells, a, b, 0, width)
    protected, used = adder.add_array(a, b)
    return (
        metrics_from_samples(main, exact, width),
        metrics_from_samples(protected, exact, width),
        float(used.mean()),
    )
