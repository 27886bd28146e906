"""The paper's recursive analytical engine (Algorithm 1, §4.1-4.2).

This is the reference implementation: a readable, scalar, single pass
over the adder stages.  For every stage it builds the eight-entry input
probability vector (IPM, Eq. 10) and contracts it with the cell's
M/K/L masks to propagate the success-conditioned carry probabilities
(Eq. 11); the last stage yields ``P(Succ)`` via the L mask (Eq. 12) and
``P(Error) = 1 - P(Succ)`` (Eq. 9).

The engine natively supports *hybrid* chains (a different cell at every
stage) and exact rational arithmetic (pass probabilities as
``fractions.Fraction`` with ``exact=True`` inputs) -- the recursion only
ever multiplies and adds, so `Fraction` flows through untouched.

For large batches of probability points, prefer
:mod:`repro.core.vectorized` which evaluates thousands of sweeps at once
with NumPy; it is validated against this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

from ..obs import metrics as _metrics
from ..obs.tracing import trace_span
from .adders import get_cell
from .exceptions import ChainLengthError
from .matrices import AnalysisMatrices, derive_matrices
from .truth_table import FullAdderTruthTable
from .types import (
    Probability,
    complement,
    validate_probability,
    validate_probability_vector,
)

CellSpec = Union[str, FullAdderTruthTable]


def resolve_cell(cell: CellSpec) -> FullAdderTruthTable:
    """Accept either a cell name (registry lookup) or a truth table."""
    if isinstance(cell, FullAdderTruthTable):
        return cell
    return get_cell(cell)


def resolve_chain(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
) -> List[FullAdderTruthTable]:
    """Normalise a cell spec to a per-stage list of truth tables.

    * a single cell + ``width`` -> uniform chain of that width;
    * a sequence of cells -> hybrid chain, ``width`` (if given) must match.
    """
    if isinstance(cell, (str, FullAdderTruthTable)):
        if width is None:
            raise ChainLengthError("width is required for a uniform chain")
        if width < 1:
            raise ChainLengthError(f"width must be >= 1, got {width}", width)
        table = resolve_cell(cell)
        return [table] * width
    cells = [resolve_cell(c) for c in cell]
    if not cells:
        raise ChainLengthError("a chain needs at least one stage", 0)
    if width is not None and width != len(cells):
        raise ChainLengthError(
            f"width={width} does not match the {len(cells)}-stage cell list",
            width,
        )
    return cells


@lru_cache(maxsize=256)
def _uniform_cells(
    name: str, table: FullAdderTruthTable, width: int
) -> Tuple[FullAdderTruthTable, ...]:
    # *name* is part of the key because tables compare by rows alone: a
    # renamed alias must not come back under its original's names.
    return (table,) * width


def chain_cells(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
) -> Tuple[FullAdderTruthTable, ...]:
    """:func:`resolve_chain` as a tuple, shared per uniform chain.

    A single cell plus *width* returns one memoised tuple per resolved
    table ``(name, rows)`` and width, so a sweep's requests over one
    uniform chain share their ``cells`` object (the batch executor
    buckets by that object).  Hybrid cell lists get a fresh tuple.
    :func:`~repro.core.matrices.clear_memos` empties the memo.
    """
    cells = resolve_chain(cell, width)
    if isinstance(cell, (str, FullAdderTruthTable)):
        return _uniform_cells(cells[0].name, cells[0], len(cells))
    return tuple(cells)


def build_ipm(
    p_a: Probability,
    p_b: Probability,
    p_c1_succ: Probability,
    p_c0_succ: Probability,
) -> List[Probability]:
    """Build the eight-entry Input Probability Matrix of Eq. 10.

    ``p_c1_succ``/``p_c0_succ`` are ``P(C_curr ∩ Succ)`` and
    ``P(C̄_curr ∩ Succ)``; rows are ordered ``(A,B,Cin) = 000..111``.
    """
    qa = complement(p_a)
    qb = complement(p_b)
    return [
        qa * qb * p_c0_succ,
        qa * qb * p_c1_succ,
        qa * p_b * p_c0_succ,
        qa * p_b * p_c1_succ,
        p_a * qb * p_c0_succ,
        p_a * qb * p_c1_succ,
        p_a * p_b * p_c0_succ,
        p_a * p_b * p_c1_succ,
    ]


def mask_dot(ipm: Sequence[Probability], mask: Sequence[int]) -> Probability:
    """Dot product of an IPM with a 0/1 mask, skipping zero entries.

    Written as a masked sum (rather than ``sum(p*m ...)``) so that exact
    `Fraction` inputs are never multiplied by floats.
    """
    total: Probability = 0
    for value, bit in zip(ipm, mask):
        if bit:
            total = total + value
    return total


@dataclass(frozen=True)
class StageRecord:
    """Per-stage quantities produced by the recursion (one Table 4 column)."""

    index: int
    cell_name: str
    p_a: Probability
    p_b: Probability
    p_c0_curr_succ: Probability   # P(C̄_curr ∩ Succ) entering the stage
    p_c1_curr_succ: Probability   # P(C_curr ∩ Succ) entering the stage
    p_c0_next_succ: Optional[Probability]  # None at the final stage ("NR")
    p_c1_next_succ: Optional[Probability]
    p_success: Optional[Probability]       # only set at the final stage

    @property
    def survival(self) -> Probability:
        """Total success-conditioned mass entering this stage,
        ``P(C∩Succ) + P(C̄∩Succ)`` -- non-increasing along the chain."""
        return self.p_c0_curr_succ + self.p_c1_curr_succ


@dataclass(frozen=True)
class ChainAnalysisResult:
    """Outcome of analysing one multi-bit chain at one probability point."""

    p_success: Probability
    width: int
    cell_names: Tuple[str, ...]
    p_a: Tuple[Probability, ...]
    p_b: Tuple[Probability, ...]
    p_cin: Probability
    trace: Tuple[StageRecord, ...] = field(default=(), repr=False)

    @property
    def p_error(self) -> Probability:
        """``P(Error) = 1 - P(Succ)`` (Eq. 9)."""
        return complement(self.p_success)

    def is_uniform(self) -> bool:
        """``True`` when every stage uses the same cell."""
        return len(set(self.cell_names)) == 1


def analyze_chain(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    keep_trace: bool = False,
) -> ChainAnalysisResult:
    """Analyse an N-bit (possibly hybrid) chain of approximate full adders.

    Parameters
    ----------
    cell:
        A cell name (``"LPAA 1"``), a :class:`FullAdderTruthTable`, or a
        per-stage sequence of either for hybrid chains (stage 0 = LSB).
    width:
        Number of stages N.  Required for a uniform chain; optional (and
        cross-checked) for a hybrid list.
    p_a, p_b:
        Probability that each operand bit is 1; a scalar broadcasts to
        all stages, a sequence gives per-bit probabilities (index 0 =
        LSB).
    p_cin:
        Probability that the stage-0 carry-in is 1.
    keep_trace:
        Record per-stage carry probabilities (reproduces paper Table 4).

    Returns
    -------
    ChainAnalysisResult
        With ``p_success`` = probability that *every* stage produces the
        exact sum and carry.  For cells where carry divergence always
        corrupts an output bit (all seven paper LPAAs -- see
        :mod:`repro.core.masking`), this equals the probability that the
        (N+1)-bit output is exactly correct.

    Examples
    --------
    >>> round(analyze_chain("LPAA 1", width=4,
    ...                     p_a=[0.9, 0.5, 0.4, 0.8],
    ...                     p_b=[0.8, 0.7, 0.6, 0.9],
    ...                     p_cin=0.5).p_success, 6)
    0.738476
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    pa = validate_probability_vector(p_a, n, "p_a")
    pb = validate_probability_vector(p_b, n, "p_b")
    pc = validate_probability(p_cin, "p_cin")

    matrices: List[AnalysisMatrices] = [derive_matrices(t) for t in cells]

    with _metrics.timed("core.recursive.analyze_chain"), \
            trace_span("core.recursive.analyze_chain", width=n):
        # Initialisation (Eq. 5): before any stage can fail, "success" is
        # certain, so the carry-in splits the full unit mass.
        p_c1 = pc
        p_c0 = complement(pc)

        trace: List[StageRecord] = []
        p_success: Probability = 0
        for i, (table, mkl) in enumerate(zip(cells, matrices)):
            ipm = build_ipm(pa[i], pb[i], p_c1, p_c0)
            last = i == n - 1
            if last:
                p_success = mask_dot(ipm, mkl.l)
                next_c1: Optional[Probability] = None
                next_c0: Optional[Probability] = None
            else:
                next_c1 = mask_dot(ipm, mkl.m)
                next_c0 = mask_dot(ipm, mkl.k)
            if keep_trace:
                trace.append(
                    StageRecord(
                        index=i,
                        cell_name=table.name,
                        p_a=pa[i],
                        p_b=pb[i],
                        p_c0_curr_succ=p_c0,
                        p_c1_curr_succ=p_c1,
                        p_c0_next_succ=next_c0,
                        p_c1_next_succ=next_c1,
                        p_success=p_success if last else None,
                    )
                )
            if not last:
                p_c1 = next_c1  # Eq. 6: carry-out of i is carry-in of i+1
                p_c0 = next_c0

    if _metrics.is_enabled():
        registry = _metrics.get_registry()
        registry.counter("core.recursive.calls").add(1)
        registry.counter("core.recursive.stages").add(n)

    return ChainAnalysisResult(
        p_success=p_success,
        width=n,
        cell_names=tuple(t.name for t in cells),
        p_a=tuple(pa),
        p_b=tuple(pb),
        p_cin=pc,
        trace=tuple(trace),
    )
