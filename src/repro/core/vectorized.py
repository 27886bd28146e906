"""NumPy-vectorised batch version of the recursive engine.

The scalar engine in :mod:`repro.core.recursive` analyses one
probability point at a time.  Design-space sweeps (paper Fig. 5, the
exploration tools, Monte-Carlo cross-validation) want thousands of
points, so this module evaluates the same recursion over a whole batch
simultaneously:

* :func:`analyze_batch` -- arbitrary ``(batch, width)`` probability
  grids, returns ``P(Succ)`` per batch element;
* :func:`success_by_width` -- one recursion pass that reports
  ``P(Succ)`` for *every* prefix width ``1..N`` (exactly what Fig. 5's
  x-axis needs), optionally over a batch of probability points at once;
* :func:`chain_success` -- the chain recursion both the batch grid and
  the scalar ``recursive`` engine run (the latter on Python floats).

All of them share one per-stage helper, :func:`_stage_sums`, which sums
only the IPM rows each 0/1 mask selects, in canonical row order, so a
row's bits never depend on its batch mates, and a single request run on
Python floats gets exactly the bits of its row in a batch.  The kernel
is validated against the exact engines to ~1e-12 in the tests, and bit
for bit against the original full 8-term masked sums.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import metrics as _metrics
from ..obs.tracing import trace_span
from .exceptions import ProbabilityError
from .matrices import selected_rows
from .probability import probability_grid, probability_row
from .recursive import CellSpec, resolve_chain
from .truth_table import FullAdderTruthTable

#: A probability operand of the stage kernel: a ``(batch,)`` array or a
#: plain Python float.
Operand = Union[np.ndarray, float]


def _stage_sums(
    pa: Operand,
    pb: Operand,
    c1: Operand,
    c0: Operand,
    selections: Sequence[Tuple[int, ...]],
) -> list:
    """Eqs. 10-12 for one stage: ``IPM . mask`` per selection.

    The IPM row ``(A,B,Cin) = j`` (canonical ``000..111`` order) is the
    operand product ``j >> 1`` times the carry state ``j & 1``; each of
    the four operand products is formed once, each term at most once,
    and every selection sums only the rows its mask picks, left to right
    in canonical order.  Elementwise multiplies and adds are exactly
    rounded, so every row's value is independent of its batch mates
    (``run_batch`` groups and chunks requests by cell sequence, and a
    request must get the same bits whichever batch it lands in -- a BLAS
    matvec's reduction order varies with the batch shape).  Skipping the
    unselected rows changes no bit: masks are 0/1 and every IPM term is
    ``>= 0``, so ``x * 1.0 == x`` and ``x + 0.0 == x``.  Plain Python
    floats follow the same IEEE-754 double arithmetic as a ``float64``
    array element, so the scalar callers get a batch row's bits.
    """
    qa = 1.0 - pa
    qb = 1.0 - pb
    pairs = (qa * qb, qa * pb, pa * qb, pa * pb)
    carries = (c0, c1)
    terms: dict = {}
    sums = []
    for rows in selections:
        total = None
        for j in rows:
            term = terms.get(j)
            if term is None:
                term = terms[j] = pairs[j >> 1] * carries[j & 1]
            total = term if total is None else total + term
        # An empty mask sums to zero (``c0 >= 0``, so ``c0 * 0.0`` is
        # +0.0 whether *c0* is an array or a float).
        sums.append(c0 * 0.0 if total is None else total)
    return sums


def chain_success(
    cells: Sequence[FullAdderTruthTable],
    p_a: Sequence[Operand],
    p_b: Sequence[Operand],
    p_cin: Operand,
) -> Operand:
    """``P(Succ)`` of a chain: the recursion through :func:`_stage_sums`.

    *cells* are resolved truth tables; ``p_a[i]``/``p_b[i]`` are stage
    *i*'s operand probabilities, validated by the caller.  With Python
    floats this is the scalar ``recursive`` engine; with ``(batch,)``
    arrays it is :func:`analyze_batch`'s loop.  Both run the same
    operations, so a float answer has exactly the bits of its batch row.

    >>> from repro.core.adders import LPAA1
    >>> chain_success([LPAA1] * 2, [0.5, 0.5], [0.5, 0.5], 0.5)
    0.625
    """
    # Selected rows once per distinct cell object; the objects stay
    # alive in *cells*, so their ids are stable keys for the call.
    selections: dict = {}
    c1 = p_cin
    c0 = 1.0 - p_cin
    last = len(cells) - 1
    for i, table in enumerate(cells):
        rows = selections.get(id(table))
        if rows is None:
            rows = selections[id(table)] = selected_rows(table)
        m, k, l = rows
        if i == last:
            (p_success,) = _stage_sums(p_a[i], p_b[i], c1, c0, (l,))
        else:
            c1, c0 = _stage_sums(p_a[i], p_b[i], c1, c0, (m, k))
    return p_success


def analyze_batch(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: object = 0.5,
    p_b: object = 0.5,
    p_cin: object = 0.5,
    batch: Optional[int] = None,
) -> np.ndarray:
    """Run the recursion over a batch of probability points.

    Parameters
    ----------
    cell, width:
        As in :func:`repro.core.recursive.analyze_chain` (hybrid chains
        supported).
    p_a, p_b:
        Scalar, ``(width,)``, ``(batch,)`` or ``(batch, width)`` arrays
        of per-bit one-probabilities.
    p_cin:
        Scalar or ``(batch,)`` array.
    batch:
        Batch size; inferred from array arguments when omitted.

    Returns
    -------
    numpy.ndarray
        ``(batch,)`` array of ``P(Succ)``.
    """
    cells = resolve_chain(cell, width)
    n = len(cells)

    if batch is None:
        batch = 1
        for p in (p_a, p_b, p_cin):
            arr = np.asarray(p)
            if arr.ndim >= 1:
                candidate = arr.shape[0]
                if arr.ndim == 1 and candidate == n and n != 1:
                    continue  # 1-D of length width: per-bit, not a batch
                batch = max(batch, candidate)

    pa = probability_grid(p_a, batch, n, "p_a")
    pb = probability_grid(p_b, batch, n, "p_b")
    pc = probability_row(p_cin, batch, "p_cin")

    with _metrics.timed("core.vectorized.analyze_batch"), \
            trace_span("core.vectorized.analyze_batch", width=n, batch=batch):
        # Row i of the transposed grids is stage i's (batch,) column.
        p_success = chain_success(cells, pa.T, pb.T, pc)
    if _metrics.is_enabled():
        _metrics.get_registry().counter("core.vectorized.points").add(batch)
    return p_success


def success_by_width(
    cell: CellSpec,
    max_width: int,
    p: object = 0.5,
    p_cin: object = 0.5,
) -> np.ndarray:
    """``P(Succ)`` of a uniform chain for every width ``1..max_width``.

    A single recursion pass suffices: the success probability of the
    width-``n`` adder is ``IPM_n . L`` evaluated with the carry state
    after ``n - 1`` stages, so each stage contributes one output.

    Parameters
    ----------
    cell:
        The (single) cell used at every stage.
    max_width:
        Largest adder width to report.
    p:
        Operand one-probability, scalar or a ``(batch,)`` grid --
        applied to every ``A_i`` and ``B_i`` (the Fig. 5 setting).
    p_cin:
        Carry-in one-probability, scalar or ``(batch,)``.

    Returns
    -------
    numpy.ndarray
        Shape ``(max_width,)`` for scalar *p*, else
        ``(batch, max_width)``; entry ``[..., n-1]`` is ``P(Succ)`` of
        the ``n``-bit adder.
    """
    if max_width < 1:
        raise ProbabilityError(f"max_width must be >= 1, got {max_width}")
    p_arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    scalar_input = np.asarray(p).ndim == 0
    if p_arr.ndim != 1:
        raise ProbabilityError(f"p must be scalar or 1-D, got shape {p_arr.shape}")
    if np.isnan(p_arr).any() or (p_arr < 0).any() or (p_arr > 1).any():
        raise ProbabilityError("p: all entries must lie in [0, 1]")
    batch = p_arr.shape[0]
    pc = probability_row(p_cin, batch, "p_cin")

    table = resolve_chain(cell, 1)[0]
    m, k, l = selected_rows(table)

    with _metrics.timed("core.vectorized.success_by_width"), \
            trace_span("core.vectorized.success_by_width",
                       max_width=max_width, batch=batch):
        c1 = pc.copy()
        c0 = 1.0 - pc
        out = np.zeros((batch, max_width))
        for i in range(max_width):
            out[:, i], c1, c0 = _stage_sums(p_arr, p_arr, c1, c0, (l, m, k))
    if _metrics.is_enabled():
        _metrics.get_registry().counter("core.vectorized.points").add(
            batch * max_width
        )
    return out[0] if scalar_input else out
