"""Marginal sum/carry statistics of approximate chains (paper §4.2, last
paragraph: "The probability of output sum bits can also be evaluated
using a similar matrices based approach").

Two levels of analysis live here:

* **Unconditioned marginals** of the approximate chain itself --
  :func:`carry_profile` and :func:`sum_bit_probabilities` track the
  actual carry distribution through the chain (no success filtering)
  using the carry masks of
  :func:`repro.core.matrices.derive_carry_matrices`.

* **Joint approximate/exact tracking** -- :func:`joint_carry_profile`
  and :func:`bit_error_probabilities` run the approximate and the exact
  carry chains *jointly*: one per-stage fold over the 4-state
  ``(approx carry, exact carry)`` table of
  :func:`repro.core.magnitude.pair_table`, which yields the exact
  per-bit probability that output bit *i* differs from the accurate
  sum.  This is strictly more informative than the paper's single
  ``P(Error)`` number.

All functions accept hybrid chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .magnitude import CarryTable, pair_table
from .matrices import derive_carry_matrices, derive_sum_matrix
from .recursive import CellSpec, build_ipm, mask_dot, resolve_chain
from .types import (
    Probability,
    complement,
    validate_probability,
    validate_probability_vector,
)


def carry_profile(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> List[Probability]:
    """Probability that each carry (including C_in) of the *approximate*
    chain is 1, **without** success conditioning.

    Returns ``N + 1`` values: ``[P(c_0=1), ..., P(c_N=1)]`` where ``c_0``
    is the external carry-in and ``c_N`` the final carry-out.
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    pa = validate_probability_vector(p_a, n, "p_a")
    pb = validate_probability_vector(p_b, n, "p_b")
    pc = validate_probability(p_cin, "p_cin")

    profile: List[Probability] = [pc]
    c1: Probability = pc
    for i, table in enumerate(cells):
        mask_c1, _ = derive_carry_matrices(table)
        ipm = build_ipm(pa[i], pb[i], c1, complement(c1))
        c1 = mask_dot(ipm, mask_c1)
        profile.append(c1)
    return profile


def sum_bit_probabilities(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> List[Probability]:
    """Probability that each approximate output sum bit is 1.

    Uses the unconditioned carry marginals, which is exact because each
    stage's inputs ``(A_i, B_i)`` are independent of its carry-in.
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    pa = validate_probability_vector(p_a, n, "p_a")
    pb = validate_probability_vector(p_b, n, "p_b")
    pc = validate_probability(p_cin, "p_cin")

    out: List[Probability] = []
    c1: Probability = pc
    for i, table in enumerate(cells):
        mask_c1, _ = derive_carry_matrices(table)
        mask_s1 = derive_sum_matrix(table)
        ipm = build_ipm(pa[i], pb[i], c1, complement(c1))
        out.append(mask_dot(ipm, mask_s1))
        c1 = mask_dot(ipm, mask_c1)
    return out


@dataclass(frozen=True)
class JointCarryState:
    """Joint distribution of ``(approximate carry, exact carry)`` at one
    chain position.  ``p[ca][ce]`` is ``P(c_approx = ca, c_exact = ce)``."""

    p00: float
    p01: float
    p10: float
    p11: float

    def as_matrix(self) -> np.ndarray:
        """2x2 matrix indexed ``[approx][exact]``."""
        return np.array([[self.p00, self.p01], [self.p10, self.p11]])

    @property
    def p_diverged(self) -> float:
        """Probability that the two carry chains currently disagree."""
        return self.p01 + self.p10

    @property
    def p_approx_one(self) -> float:
        """Marginal ``P(c_approx = 1)``."""
        return self.p10 + self.p11

    @property
    def p_exact_one(self) -> float:
        """Marginal ``P(c_exact = 1)``."""
        return self.p01 + self.p11

    def total(self) -> float:
        """Total mass (== 1 up to rounding); exposed for invariants tests."""
        return self.p00 + self.p01 + self.p10 + self.p11


def _pair_fold(table: CarryTable) -> Tuple[List[np.ndarray], List[float]]:
    """State masses entering every stage and each stage's mismatch mass.

    One pass over the pair table: ``masses[i][2 * ca + ce]`` is
    ``P(c_approx = ca, c_exact = ce)`` entering stage ``i`` (``N + 1``
    vectors), ``mismatches[i]`` the mass of stage ``i``'s rows with a
    sum-bit difference ``d != 0``.  Rows run in ascending state order,
    so every sum accumulates in the order ``(ca, ce, a, b)``.
    """
    mass = np.zeros(table.states)
    for state, start_mass, _ in table.start:
        mass[state] = start_mass
    masses, mismatches = [mass], []
    for rows in table.stages:
        nxt = np.zeros(table.states)
        mismatch = 0.0
        for state, state_next, d, _, w in sorted(rows, key=lambda r: r[0]):
            flow = mass[state] * w
            nxt[state_next] += flow
            if d:
                mismatch += flow
        masses.append(nxt)
        mismatches.append(mismatch)
        mass = nxt
    return masses, mismatches


def joint_carry_profile(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> List[JointCarryState]:
    """Track ``(approx, exact)`` carries jointly through the chain.

    Returns ``N + 1`` states; state 0 is the (shared) external carry-in,
    state ``i`` the carries *entering* stage ``i`` (so the last entry is
    the final carry-out pair of the whole adder).
    """
    masses, _ = _pair_fold(pair_table(cell, width, p_a, p_b, p_cin))
    return [JointCarryState(*mass) for mass in masses]


def bit_error_probabilities(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> Tuple[List[float], float]:
    """Exact marginal probability that each output bit is wrong.

    Returns ``(sum_bit_errors, carry_out_error)`` where
    ``sum_bit_errors[i] = P(approx sum bit i != exact sum bit i)`` and
    ``carry_out_error = P(approx c_out != exact c_out)``.  These are
    exact marginals (bit errors are *not* independent across positions,
    so they do not multiply into a word-level error probability -- use
    :func:`repro.core.recursive.analyze_chain` for that).
    """
    table = pair_table(cell, width, p_a, p_b, p_cin)
    masses, errors = _pair_fold(table)
    # The final term's d is the carry-out difference.
    carry_error = sum(masses[-1][state]
                      for state, (d, _) in enumerate(table.final) if d)
    return errors, float(carry_error)
