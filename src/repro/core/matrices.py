"""Derivation of the M / K / L analysis masks (paper §4.2, Table 5).

For a cell truth table the three 8-entry 0/1 masks are defined as:

* ``M[i] = 1`` iff row *i* is a **success** (both sum and carry match the
  accurate adder) *and* its carry-out is 1;
* ``K[i] = 1`` iff row *i* is a success *and* its carry-out is 0;
* ``L[i] = 1`` iff row *i* is a success.

Two structural identities always hold and are property-tested:
``L = M | K`` (element-wise) and ``M & K = 0``.

The masks are derived from the truth table here rather than hard-coded;
the Table 5 constants are kept (``TABLE5_MATRICES``) purely as golden
data for validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..obs import metrics as _metrics
from .truth_table import FullAdderTruthTable

MaskRow = Tuple[int, int, int, int, int, int, int, int]

#: The canonical row indices each of a cell's ``(m, k, l)`` masks selects.
SelectedRows = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]

# Fingerprint-keyed memos: the eight (sum, cout) truth-table rows
# identify a cell exactly, so differently-named tables with equal rows
# share entries.  Sweeps lower the same handful of cells millions of
# times -- the masks are pure functions of the rows, so recomputing them
# per call is pure waste.  Unbounded on purpose: there are at most 4^8
# distinct tables, and a real run sees a few dozen.  Hit rates of the
# mask memos are reported as ``engine.cache.matrices.*``.
_MATRICES_MEMO: Dict[Tuple[Tuple[int, int], ...], "AnalysisMatrices"] = {}
_CARRY_MEMO: Dict[Tuple[Tuple[int, int], ...], Tuple[MaskRow, MaskRow]] = {}
_SELECTED_MEMO: Dict[Tuple[Tuple[int, int], ...], SelectedRows] = {}


def _count_memo(hit: bool) -> None:
    if _metrics.is_enabled():
        _metrics.inc("engine.cache.matrices.hits" if hit
                     else "engine.cache.matrices.misses")


@dataclass(frozen=True)
class AnalysisMatrices:
    """The constant masks driving the recursive analysis of one cell.

    Attributes
    ----------
    m:
        Success-and-carry-one mask (``P(C_next ∩ Succ) = IPM · m``).
    k:
        Success-and-carry-zero mask (``P(C̄_next ∩ Succ) = IPM · k``).
    l:
        Success mask (``P(Succ) = IPM · l`` at the last stage).
    """

    m: MaskRow
    k: MaskRow
    l: MaskRow

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the three masks as float64 NumPy vectors (for dot products)."""
        return (
            np.asarray(self.m, dtype=np.float64),
            np.asarray(self.k, dtype=np.float64),
            np.asarray(self.l, dtype=np.float64),
        )

    def success_row_count(self) -> int:
        """Number of success rows; ``8 - error cases`` of the cell."""
        return int(sum(self.l))


def derive_matrices(table: FullAdderTruthTable) -> AnalysisMatrices:
    """Derive the :class:`AnalysisMatrices` of *table* (paper §4.2 steps 1-3).

    >>> from repro.core.adders import LPAA1
    >>> derive_matrices(LPAA1).m
    (0, 0, 0, 1, 0, 1, 1, 1)
    """
    cached = _MATRICES_MEMO.get(table.rows)
    if cached is not None:
        _count_memo(hit=True)
        return cached
    _count_memo(hit=False)
    success = table.success_rows()
    m = tuple(
        1 if ok and cout == 1 else 0
        for ok, (_, cout) in zip(success, table.rows)
    )
    k = tuple(
        1 if ok and cout == 0 else 0
        for ok, (_, cout) in zip(success, table.rows)
    )
    l = tuple(1 if ok else 0 for ok in success)
    matrices = AnalysisMatrices(m=m, k=k, l=l)  # type: ignore[arg-type]
    _MATRICES_MEMO[table.rows] = matrices
    return matrices


def selected_rows(table: FullAdderTruthTable) -> SelectedRows:
    """The row indices *table*'s ``(m, k, l)`` masks select, in canonical
    ``000..111`` order -- what the stage kernel of
    :mod:`repro.core.vectorized` sums.

    >>> from repro.core.adders import LPAA1
    >>> selected_rows(LPAA1)[0]
    (3, 5, 6, 7)
    """
    selected = _SELECTED_MEMO.get(table.rows)
    if selected is None:
        mkl = derive_matrices(table)
        selected = tuple(  # type: ignore[assignment]
            tuple(j for j, bit in enumerate(mask) if bit)
            for mask in (mkl.m, mkl.k, mkl.l)
        )
        _SELECTED_MEMO[table.rows] = selected
    return selected


def clear_memos() -> None:
    """Empty the fingerprint-keyed mask memos and the shared uniform
    chain tuples of :func:`~repro.core.recursive.chain_cells` (cold
    starts, tests).

    Exported as :func:`repro.engine.clear_cache`.
    """
    from .recursive import _uniform_cells

    _uniform_cells.cache_clear()
    _MATRICES_MEMO.clear()
    _CARRY_MEMO.clear()
    _SELECTED_MEMO.clear()


def derive_carry_matrices(table: FullAdderTruthTable) -> Tuple[MaskRow, MaskRow]:
    """Unconditioned carry masks: ``(C1, C0)`` where ``C1[i] = 1`` iff the
    *approximate* carry-out of row *i* is 1 (no success filtering).

    These drive :mod:`repro.core.sum_analysis`, which tracks the actual
    carry distribution of the approximate chain rather than only the
    fully-correct executions.
    """
    cached = _CARRY_MEMO.get(table.rows)
    if cached is not None:
        _count_memo(hit=True)
        return cached
    _count_memo(hit=False)
    c1 = tuple(cout for _, cout in table.rows)
    c0 = tuple(1 - cout for _, cout in table.rows)
    masks = (c1, c0)
    _CARRY_MEMO[table.rows] = masks
    return masks  # type: ignore[return-value]


def derive_sum_matrix(table: FullAdderTruthTable) -> MaskRow:
    """Mask ``S1`` with ``S1[i] = 1`` iff the approximate sum of row *i* is 1."""
    return tuple(s for s, _ in table.rows)  # type: ignore[return-value]


#: Golden copies of paper Table 5 ("M, K and L Matrices Required for
#: Analysis of LPAA 1-7"), used only by validation tests and the Table 5
#: reproduction bench.
TABLE5_MATRICES: Dict[str, AnalysisMatrices] = {
    "LPAA 1": AnalysisMatrices(
        m=(0, 0, 0, 1, 0, 1, 1, 1),
        k=(1, 1, 0, 0, 0, 0, 0, 0),
        l=(1, 1, 0, 1, 0, 1, 1, 1),
    ),
    "LPAA 2": AnalysisMatrices(
        m=(0, 0, 0, 1, 0, 1, 1, 0),
        k=(0, 1, 1, 0, 1, 0, 0, 0),
        l=(0, 1, 1, 1, 1, 1, 1, 0),
    ),
    "LPAA 3": AnalysisMatrices(
        m=(0, 0, 0, 1, 0, 1, 1, 0),
        k=(0, 1, 0, 0, 1, 0, 0, 0),
        l=(0, 1, 0, 1, 1, 1, 1, 0),
    ),
    "LPAA 4": AnalysisMatrices(
        m=(0, 0, 0, 0, 0, 1, 1, 1),
        k=(1, 1, 0, 0, 0, 0, 0, 0),
        l=(1, 1, 0, 0, 0, 1, 1, 1),
    ),
    "LPAA 5": AnalysisMatrices(
        m=(0, 0, 0, 0, 0, 1, 0, 1),
        k=(1, 0, 1, 0, 0, 0, 0, 0),
        l=(1, 0, 1, 0, 0, 1, 0, 1),
    ),
    "LPAA 6": AnalysisMatrices(
        m=(0, 0, 0, 1, 0, 1, 0, 1),
        k=(1, 0, 1, 0, 1, 0, 0, 0),
        l=(1, 0, 1, 1, 1, 1, 0, 1),
    ),
    "LPAA 7": AnalysisMatrices(
        m=(0, 0, 0, 0, 0, 0, 1, 1),
        k=(1, 1, 1, 0, 1, 0, 0, 0),
        l=(1, 1, 1, 0, 1, 0, 1, 1),
    ),
}
