"""Statistical error analysis for carry-save structures.

A 3:2 compressor row has **no carry chain**, so its columns are
statistically independent: the probability that the whole row behaves
accurately is an exact per-column product
(:func:`csa_layer_success_probability`), computed with the same L mask
the RCA recursion uses.  Deeper trees re-introduce correlation (a
column's sum and carry are dependent and both flow downstream), so for
full trees the module provides:

* :func:`csa_tree_success_product` -- the all-cells-accurate product
  with marginals propagated level by level.  It is exact for one level;
  for deeper trees it is a (documented, tested) approximation of the
  probability that *every compressor cell* behaves accurately -- which
  is itself a lower bound on output correctness, since compressor errors
  can cancel numerically;
* :func:`multi_operand_error_probability_mc` -- seeded Monte-Carlo over
  the exact functional model (the ground truth for any configuration);
* :func:`multi_operand_error_exact` -- weighted enumeration for small
  operand counts/widths (the oracle the others are tested against).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.bitplanes import bernoulli_planes, planes_to_values
from ..core.exceptions import AnalysisError
from ..core.matrices import derive_matrices
from ..core.probability import float_probability_vector
from ..core.recursive import CellSpec, resolve_cell
from .compressor import multi_operand_add, multi_operand_add_array


def _column_distribution(cell, p_x: float, p_y: float, p_z: float):
    """Per-column probabilities: (P(cell accurate), P(sum=1), P(carry=1))."""
    table = resolve_cell(cell)
    mkl = derive_matrices(table)
    p_ok = p_sum = p_carry = 0.0
    for idx in range(8):
        x, y, z = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        weight = (
            (p_x if x else 1 - p_x)
            * (p_y if y else 1 - p_y)
            * (p_z if z else 1 - p_z)
        )
        s, c = table.rows[idx]
        p_ok += weight * mkl.l[idx]
        p_sum += weight * s
        p_carry += weight * c
    return p_ok, p_sum, p_carry


def csa_layer_success_probability(
    cell: CellSpec,
    p_x: Union[float, Sequence[float]],
    p_y: Union[float, Sequence[float]],
    p_z: Union[float, Sequence[float]],
    width: int,
) -> float:
    """Exact P(every column of one 3:2 row behaves accurately).

    Columns are independent (no carry chain), so this is a plain product
    of per-column success masses -- and since a compressor-row error
    always changes ``sum + carry`` away from ``x + y + z`` at that
    column's weight unless another column cancels it, it also equals the
    word-level correctness probability of the row for cells whose error
    cases all shift the column total (checked against enumeration in the
    tests).
    """
    px = float_probability_vector(p_x, width, "p_x")
    py = float_probability_vector(p_y, width, "p_y")
    pz = float_probability_vector(p_z, width, "p_z")
    product = 1.0
    for i in range(width):
        p_ok, _, _ = _column_distribution(cell, px[i], py[i], pz[i])
        product *= p_ok
    return product


def csa_tree_success_product(
    cell: CellSpec,
    operand_probabilities: Sequence[Sequence[float]],
    width: int,
) -> float:
    """Product-form estimate of P(every compressor cell accurate).

    Propagates per-position one-probability marginals through the
    Wallace levels (independence assumption between words) and
    multiplies each visited column's success mass.  Exact for a single
    level; an approximation beyond (tested within tolerance of MC).
    """
    probs: List[List[float]] = [
        float_probability_vector(row, width, "operand")
        for row in operand_probabilities
    ]
    if not probs:
        raise AnalysisError("need at least one operand probability row")
    current_width = width
    success = 1.0
    while len(probs) > 2:
        next_probs: List[List[float]] = []
        for j in range(0, len(probs) - 2, 3):
            x_row = probs[j] + [0.0]
            y_row = probs[j + 1] + [0.0]
            z_row = probs[j + 2] + [0.0]
            sum_row = [0.0] * (current_width + 1)
            carry_row = [0.0] * (current_width + 1)
            for i in range(current_width):
                p_ok, p_sum, p_carry = _column_distribution(
                    cell, x_row[i], y_row[i], z_row[i]
                )
                success *= p_ok
                sum_row[i] = p_sum
                carry_row[i + 1] = p_carry
            next_probs.extend([sum_row, carry_row])
        if len(probs) % 3:
            for row in probs[len(probs) - len(probs) % 3:]:
                next_probs.append(row + [0.0])
        probs = next_probs
        current_width += 1
    return success


def multi_operand_error_probability_mc(
    operand_probabilities: Sequence[Sequence[float]],
    width: int,
    compress_cell: CellSpec = "accurate",
    final_adder: Union[CellSpec, Sequence[CellSpec], None] = None,
    samples: int = 200_000,
    seed: Optional[int] = None,
) -> float:
    """Monte-Carlo P(CSA-tree + final-adder output != exact sum)."""
    if samples < 1:
        raise AnalysisError(f"samples must be >= 1, got {samples}")
    rows = [
        float_probability_vector(row, width, "operand")
        for row in operand_probabilities
    ]
    planes = bernoulli_planes(np.random.default_rng(seed),
                              [p for row in rows for p in row], samples)
    operands = [planes_to_values(planes[k * width:(k + 1) * width], samples)
                for k in range(len(rows))]
    exact = sum(operands)
    approx = multi_operand_add_array(
        operands, width, compress_cell=compress_cell, final_adder=final_adder
    )
    return float((approx != exact).mean())


#: Case guard of the exact enumerator (also the registered
#: ``multiop-exact`` engine's ``block_cases``).
MULTIOP_EXACT_CASES = 1 << 22


def multi_operand_error_exact(
    operand_probabilities: Sequence[Sequence[float]],
    width: int,
    compress_cell: CellSpec = "accurate",
    final_adder: Union[CellSpec, Sequence[CellSpec], None] = None,
    max_cases: int = MULTIOP_EXACT_CASES,
) -> float:
    """Exact weighted enumeration over all operand combinations.

    Cost is ``2^(n_operands * width)``; guarded by *max_cases*.
    """
    rows = [
        float_probability_vector(row, width, "operand")
        for row in operand_probabilities
    ]
    n = len(rows)
    total_cases = 1 << (n * width)
    if total_cases > max_cases:
        raise AnalysisError(
            f"{n} operands x {width} bits needs {total_cases} cases "
            f"(> {max_cases}); use the Monte-Carlo estimator"
        )
    p_error = 0.0
    values = [0] * n
    # Mixed-radix enumeration over all operand tuples.
    for case in range(total_cases):
        weight = 1.0
        rest = case
        for k in range(n):
            values[k] = rest & ((1 << width) - 1)
            rest >>= width
            for i in range(width):
                bit = (values[k] >> i) & 1
                weight *= rows[k][i] if bit else 1.0 - rows[k][i]
        if weight == 0.0:
            continue
        approx = multi_operand_add(
            values, width, compress_cell=compress_cell,
            final_adder=final_adder,
        )
        if approx != sum(values):
            p_error += weight
    return p_error
