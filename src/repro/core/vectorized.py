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
  x-axis needs), optionally over a batch of probability points at once.

Both are validated against the scalar engine to ~1e-12 in the tests.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import metrics as _metrics
from ..obs.tracing import trace_span
from .exceptions import ProbabilityError
from .matrices import derive_matrices
from .probability import probability_grid, probability_row
from .recursive import CellSpec, resolve_chain

#: Per-stage ``(m, k, l)`` mask arrays, as produced by
#: ``AnalysisMatrices.as_arrays()``.  ``analyze_batch`` accepts a
#: precomputed sequence of these (one per stage) so callers with a
#: matrix cache -- the :mod:`repro.engine` executor -- skip the
#: per-stage mask derivation entirely.
MaskArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _ipm_batch(
    pa: np.ndarray, pb: np.ndarray, c1: np.ndarray, c0: np.ndarray
) -> np.ndarray:
    """Vectorised Eq. 10: build a ``(batch, 8)`` IPM block.

    Row order is the canonical ``(A,B,Cin) = 000..111``.
    """
    qa = 1.0 - pa
    qb = 1.0 - pb
    return np.stack(
        [
            qa * qb * c0,
            qa * qb * c1,
            qa * pb * c0,
            qa * pb * c1,
            pa * qb * c0,
            pa * qb * c1,
            pa * pb * c0,
            pa * pb * c1,
        ],
        axis=1,
    )


def _masked_sum(ipm: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``ipm @ mask`` with a fixed left-to-right reduction order.

    ``numpy``'s matmul hands the contraction to BLAS kernels whose
    summation order varies with the batch shape, so the same
    probability row can land on a different last ulp depending on which
    rows happen to share its batch.  ``run_batch`` groups and chunks
    requests by cell sequence, and a request must get the same bits
    whichever batch it lands in, so the 8-term reduction is accumulated
    explicitly in canonical row order instead: elementwise multiplies
    and adds are exactly rounded, which makes every row's value
    independent of its batch mates.
    """
    out = ipm[:, 0] * mask[0]
    for j in range(1, ipm.shape[1]):
        out += ipm[:, j] * mask[j]
    return out


def analyze_batch(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: object = 0.5,
    p_b: object = 0.5,
    p_cin: object = 0.5,
    batch: Optional[int] = None,
    matrices: Optional[Sequence[MaskArrays]] = None,
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
    matrices:
        Optional per-stage ``(m, k, l)`` mask arrays (cache-supplied);
        derived from the truth tables when omitted.

    Returns
    -------
    numpy.ndarray
        ``(batch,)`` array of ``P(Succ)``.
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    if matrices is not None and len(matrices) != n:
        raise ProbabilityError(
            f"matrices: need one (m, k, l) triple per stage, got "
            f"{len(matrices)} for {n} stages"
        )

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
        c1 = pc.copy()
        c0 = 1.0 - pc
        p_success = np.zeros(batch)
        for i, table in enumerate(cells):
            if matrices is not None:
                m, k, l = matrices[i]
            else:
                m, k, l = derive_matrices(table).as_arrays()
            ipm = _ipm_batch(pa[:, i], pb[:, i], c1, c0)
            if i == n - 1:
                p_success = _masked_sum(ipm, l)
            else:
                c1 = _masked_sum(ipm, m)
                c0 = _masked_sum(ipm, k)
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
    m, k, l = derive_matrices(table).as_arrays()

    with _metrics.timed("core.vectorized.success_by_width"), \
            trace_span("core.vectorized.success_by_width",
                       max_width=max_width, batch=batch):
        c1 = pc.copy()
        c0 = 1.0 - pc
        out = np.zeros((batch, max_width))
        for i in range(max_width):
            ipm = _ipm_batch(p_arr, p_arr, c1, c0)
            out[:, i] = _masked_sum(ipm, l)
            c1, c0 = _masked_sum(ipm, m), _masked_sum(ipm, k)
    if _metrics.is_enabled():
        _metrics.get_registry().counter("core.vectorized.points").add(
            batch * max_width
        )
    return out[0] if scalar_input else out
