"""Multiply-accumulate and dot products on approximate addition.

DSP kernels (the paper's motivating domain) are dominated by
accumulation.  Two accumulation styles over exact products:

* :func:`dot_product` -- CSA-tree reduction of all partial results, the
  high-throughput datapath shape;
* :class:`Accumulator` -- sequential ripple-adder accumulation, the
  low-area shape, with wraparound semantics of real fixed-width
  hardware.

Multiplications are performed exactly (the paper approximates adders,
not multipliers); the accumulating adders are the approximate parts.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..core.bitplanes import bernoulli_planes, planes_to_values
from ..core.exceptions import AnalysisError, ChainLengthError
from ..core.recursive import CellSpec
from ..simulation.functional import ripple_add
from .compressor import multi_operand_add


def dot_product(
    a: Sequence[int],
    b: Sequence[int],
    input_width: int,
    compress_cell: CellSpec = "accurate",
    final_adder: Union[CellSpec, Sequence[CellSpec], None] = None,
) -> int:
    """``sum(a_i * b_i)`` with the accumulation on a CSA tree.

    Products are exact ``2 * input_width``-bit partials; the reduction
    tree and final adder may be approximate.
    """
    if len(a) != len(b):
        raise AnalysisError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        return 0
    limit = 1 << input_width
    for name, vec in (("a", a), ("b", b)):
        if any(v < 0 or v >= limit for v in vec):
            raise ChainLengthError(
                f"{name} entries must fit in {input_width} bits"
            )
    products = [x * y for x, y in zip(a, b)]
    return multi_operand_add(
        products, 2 * input_width,
        compress_cell=compress_cell, final_adder=final_adder,
    )


class Accumulator:
    """A fixed-width sequential accumulator over an approximate adder.

    Adds each input into a *width*-bit register through the configured
    ripple chain; the register wraps modulo ``2**width`` exactly like
    hardware (the adder's carry-out is dropped).
    """

    def __init__(
        self,
        width: int,
        cell: Union[CellSpec, Sequence[CellSpec]] = "accurate",
    ):
        if width < 1:
            raise ChainLengthError(f"width must be >= 1, got {width}", width)
        self._width = width
        self._cell = cell
        self._value = 0
        self._exact = 0
        self._steps = 0

    @property
    def width(self) -> int:
        """Register width in bits."""
        return self._width

    @property
    def value(self) -> int:
        """Current (approximate) register contents."""
        return self._value

    @property
    def exact_value(self) -> int:
        """What an exact accumulator would hold (same wraparound)."""
        return self._exact

    @property
    def steps(self) -> int:
        """Number of accumulated inputs."""
        return self._steps

    @property
    def drift(self) -> int:
        """Signed error ``value - exact_value`` on the wrapped register
        (mapped into ``[-2^(w-1), 2^(w-1))``)."""
        half = 1 << (self._width - 1)
        raw = (self._value - self._exact) % (1 << self._width)
        return raw - (1 << self._width) if raw >= half else raw

    def add(self, value: int) -> int:
        """Accumulate one input; returns the new register value."""
        mask = (1 << self._width) - 1
        if value < 0 or value > mask:
            raise ChainLengthError(
                f"input {value} must fit in {self._width} bits"
            )
        self._value = ripple_add(
            self._cell, self._value, value, 0, self._width
        ) & mask
        self._exact = (self._exact + value) & mask
        self._steps += 1
        return self._value

    def reset(self) -> None:
        """Clear the register and the exact shadow."""
        self._value = 0
        self._exact = 0
        self._steps = 0


def accumulator_drift_profile(
    width: int,
    cell: Union[CellSpec, Sequence[CellSpec]],
    inputs: Sequence[int],
) -> np.ndarray:
    """Signed drift after each accumulation step (length = len(inputs))."""
    acc = Accumulator(width, cell)
    drifts = np.zeros(len(inputs), dtype=np.int64)
    for i, value in enumerate(inputs):
        acc.add(int(value))
        drifts[i] = acc.drift
    return drifts


def mean_accumulator_drift(
    width: int,
    cell: Union[CellSpec, Sequence[CellSpec]],
    steps: int,
    p_input: float = 0.5,
    trials: int = 64,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Average |drift| trajectory over random input streams.

    Returns a ``(steps,)`` array: mean absolute register error after
    each step, averaged over *trials* random streams whose bits are 1
    with probability *p_input*.
    """
    if steps < 1 or trials < 1:
        raise AnalysisError("steps and trials must be >= 1")
    if not 0.0 <= p_input <= 1.0:
        raise AnalysisError(f"p_input must be in [0, 1], got {p_input}")
    rng = np.random.default_rng(seed)
    totals = np.zeros(steps, dtype=np.float64)
    for _ in range(trials):
        stream = planes_to_values(
            bernoulli_planes(rng, [p_input] * width, steps), steps)
        drifts = accumulator_drift_profile(width, cell, stream)
        totals += np.abs(drifts)
    return totals / trials
