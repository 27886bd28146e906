"""The recursion under *correlated* operand bits.

The paper (like the prior work it cites) assumes all input bits are
statistically independent.  Real operands often are not: sign-extended
values, ``a + a``-style self-additions, or operands derived from a
shared source correlate ``A_i`` with ``B_i``.  The recursion survives
this generalisation untouched, because independence is only used to
factor the per-stage input mass: replacing the product
``P(A_i) * P(B_i)`` with a joint distribution ``P(A_i = a, B_i = b)``
keeps every other step identical (the carry state is still independent
of the *current* stage's fresh operand bits).

What this module supports -- and what it cannot: correlation **within**
a stage (between ``A_i`` and ``B_i``) is exact; correlation **across**
stages (``A_i`` with ``A_j``) would enlarge the carry state and is out
of scope, as in the paper.

* :class:`JointBitDistribution` -- one stage's ``2x2`` operand law;
* :func:`analyze_chain_correlated` -- Algorithm 1 over joint laws;
* helpers for the common cases (independent, identical operands,
  complementary operands).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .exceptions import ProbabilityError
from .matrices import derive_matrices
from .recursive import CellSpec, resolve_chain
from .types import Probability, validate_probability


@dataclass(frozen=True)
class JointBitDistribution:
    """Joint law of one stage's operand bits: ``p[a][b] = P(A=a, B=b)``."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self) -> None:
        values = (self.p00, self.p01, self.p10, self.p11)
        if any(v < -1e-12 or v > 1 + 1e-12 for v in values):
            raise ProbabilityError(
                f"joint probabilities out of [0, 1]: {values}"
            )
        total = sum(values)
        if abs(total - 1.0) > 1e-9:
            raise ProbabilityError(
                f"joint distribution sums to {total!r}, expected 1"
            )

    @classmethod
    def independent(
        cls, p_a: Probability, p_b: Probability
    ) -> "JointBitDistribution":
        """The paper's setting: ``P(A=a) * P(B=b)``."""
        pa = float(validate_probability(p_a, "p_a"))
        pb = float(validate_probability(p_b, "p_b"))
        return cls(
            p00=(1 - pa) * (1 - pb),
            p01=(1 - pa) * pb,
            p10=pa * (1 - pb),
            p11=pa * pb,
        )

    @classmethod
    def identical(cls, p: Probability) -> "JointBitDistribution":
        """Both operands share the same bit (``a + a``): A == B always."""
        q = float(validate_probability(p, "p"))
        return cls(p00=1 - q, p01=0.0, p10=0.0, p11=q)

    @classmethod
    def complementary(cls, p: Probability) -> "JointBitDistribution":
        """``B = NOT A`` (e.g. ``a + ~a`` in two's-complement negation)."""
        q = float(validate_probability(p, "p"))
        return cls(p00=0.0, p01=1 - q, p10=q, p11=0.0)

    def weight(self, a: int, b: int) -> float:
        """``P(A = a, B = b)``."""
        return (self.p00, self.p01, self.p10, self.p11)[a * 2 + b]

    @property
    def correlation_free(self) -> bool:
        """True when the law factors into independent marginals."""
        pa = self.p10 + self.p11
        pb = self.p01 + self.p11
        return abs(self.p11 - pa * pb) < 1e-12


def analyze_chain_correlated(
    cell: Union[CellSpec, Sequence[CellSpec]],
    joints: Sequence[JointBitDistribution],
    p_cin: Probability = 0.5,
    width: Optional[int] = None,
) -> Tuple[float, List[Tuple[float, float]]]:
    """Algorithm 1 with per-stage joint operand laws.

    Returns ``(p_success, trace)`` where *trace* holds the
    success-conditioned ``(P(C̄∩S), P(C∩S))`` entering each stage.
    """
    cells = resolve_chain(cell, width if width is not None else len(joints))
    if len(joints) != len(cells):
        raise ProbabilityError(
            f"need one joint distribution per stage: got {len(joints)} "
            f"for {len(cells)} stages"
        )
    pc = float(validate_probability(p_cin, "p_cin"))

    c1, c0 = pc, 1.0 - pc
    trace: List[Tuple[float, float]] = []
    p_success = 0.0
    n = len(cells)
    for i, (table, joint) in enumerate(zip(cells, joints)):
        trace.append((c0, c1))
        mkl = derive_matrices(table)
        ipm = [
            joint.weight(row >> 2, (row >> 1) & 1) * (c1 if row & 1 else c0)
            for row in range(8)
        ]
        if i == n - 1:
            p_success = sum(v for v, bit in zip(ipm, mkl.l) if bit)
        else:
            c1 = sum(v for v, bit in zip(ipm, mkl.m) if bit)
            c0 = sum(v for v, bit in zip(ipm, mkl.k) if bit)
    return p_success, trace


def self_addition_error(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: int,
    p: Probability = 0.5,
    p_cin: Probability = 0.0,
) -> float:
    """Error probability of computing ``a + a`` (a doubling circuit).

    A common datapath special case with perfectly correlated operands:
    the independence assumption can be badly wrong here, which this
    exact analysis quantifies.
    """
    joints = [JointBitDistribution.identical(p)] * width
    p_success, _ = analyze_chain_correlated(cell, joints, p_cin, width)
    return 1.0 - p_success
