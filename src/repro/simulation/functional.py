"""Functional (bit-true) simulation of multi-bit approximate adders.

This is the behavioural substrate every simulation-based experiment in
the paper rests on: ripple an N-bit addition through single-bit cell
truth tables and return the (N+1)-bit result.  Two implementations:

* :func:`ripple_add` -- scalar integers, the readable reference;
* :func:`ripple_add_planes` -- the bit-sliced kernel: packed bit planes
  (:mod:`repro.core.bitplanes`), one bitwise NumPy operation per gate
  for eight lanes a byte.  The Monte-Carlo samplers feed it planes
  straight from their Boolean draws; :func:`ripple_add_array` wraps it
  for integer operands (the exhaustive oracle, ANT, the imaging and
  datapath models).

All of them support hybrid chains (per-stage cell lists).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..core.bitplanes import planes_to_values, values_to_planes
from ..core.exceptions import ChainLengthError, TruthTableError
from ..core.recursive import CellSpec, resolve_chain
from ..core.types import row_index, validate_bit


def ripple_add(
    cell: Union[CellSpec, Sequence[CellSpec]],
    a: int,
    b: int,
    cin: int = 0,
    width: Optional[int] = None,
) -> int:
    """Add *a* and *b* through a ripple chain of approximate cells.

    Parameters
    ----------
    cell:
        Cell name / truth table, or a per-stage list for hybrid chains.
    a, b:
        Unsigned operands; must fit in *width* bits.
    cin:
        Carry-in bit of stage 0.
    width:
        Adder width N (required for a uniform chain spec).

    Returns
    -------
    int
        The (N+1)-bit result: N sum bits plus the final carry at bit N.
        Equals ``a + b + cin`` when every stage behaves accurately.

    >>> from repro.core.adders import LPAA5
    >>> ripple_add(LPAA5, 3, 1, 0, 2)   # 3+1 through 2-bit LPAA 5: errs
    5
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    if a < 0 or b < 0:
        raise ChainLengthError(f"operands must be non-negative, got {a}, {b}")
    if a >= 1 << n or b >= 1 << n:
        raise ChainLengthError(
            f"operands must fit in {n} bits, got a={a}, b={b}"
        )
    carry = validate_bit(cin, "cin")
    result = 0
    for i, table in enumerate(cells):
        s, carry = table.evaluate((a >> i) & 1, (b >> i) & 1, carry)
        result |= s << i
    return result | (carry << n)


def exact_add(a: int, b: int, cin: int = 0) -> int:
    """The reference result ``a + b + cin`` (kept for symmetric call sites)."""
    return a + b + validate_bit(cin, "cin")


def _cell_planes(
    rows: Sequence[Tuple[int, int]],
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sum, carry)`` planes of one cell: each output is the OR, over
    the four ``(a, b)`` minterms, of the minterm gated by the rows'
    values at ``c = 0`` and ``c = 1``."""
    not_a, not_b, not_c = ~a, ~b, ~c
    minterms = (not_a & not_b, not_a & b, a & not_b, a & b)
    outs = []
    for k in (0, 1):
        out = None
        for ab, term in enumerate(minterms):
            low, high = rows[2 * ab][k], rows[2 * ab + 1][k]
            if not (low or high):
                continue
            if not (low and high):
                term = term & (c if high else not_c)
            out = term if out is None else out | term
        outs.append(np.zeros_like(a) if out is None else out)
    return outs[0], outs[1]


def ripple_add_planes(
    cell: Union[CellSpec, Sequence[CellSpec]],
    a: np.ndarray,
    b: np.ndarray,
    cin: Optional[np.ndarray] = None,
    width: Optional[int] = None,
) -> np.ndarray:
    """The bit-sliced ripple kernel over packed bit planes.

    *a* and *b* are ``(N, bytes)`` uint8 planes
    (:mod:`repro.core.bitplanes`), *cin* one ``(bytes,)`` plane (``None``
    is carry-in 0).  Returns the ``(N + 1, bytes)`` planes of the
    result: N sum bits, then the final carry.  Every lane equals
    :func:`ripple_add` on its operands; padding lanes are undefined.
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    if a.shape != b.shape or a.shape[0] != n:
        raise ChainLengthError(
            f"need {n} operand planes each, got {a.shape} and {b.shape}"
        )
    carry = np.zeros_like(a[0]) if cin is None else cin
    out = np.empty((n + 1,) + a.shape[1:], dtype=a.dtype)
    for i, table in enumerate(cells):
        rows = table.rows
        if len(rows) != 8:
            raise TruthTableError(f"malformed truth table {table!r}")
        out[i], carry = _cell_planes(rows, a[i], b[i], carry)
    out[n] = carry
    return out


def ripple_add_array(
    cell: Union[CellSpec, Sequence[CellSpec]],
    a: np.ndarray,
    b: np.ndarray,
    cin: Union[int, np.ndarray] = 0,
    width: Optional[int] = None,
) -> np.ndarray:
    """Vectorised :func:`ripple_add` over arrays of operands.

    *a*, *b* (and optionally *cin*) are equal-shaped unsigned integer
    arrays; the return value holds the (N+1)-bit approximate results.
    A thin wrapper: the operands go to planes, through
    :func:`ripple_add_planes` and back.
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ChainLengthError(
            f"operand arrays must share a shape, got {a.shape} vs {b.shape}"
        )
    if (a < 0).any() or (b < 0).any():
        raise ChainLengthError("operands must be non-negative")
    if (a >= 1 << n).any() or (b >= 1 << n).any():
        raise ChainLengthError(f"operands must fit in {n} bits")
    carry = np.broadcast_to(np.asarray(cin, dtype=np.int64), a.shape)
    if ((carry < 0) | (carry > 1)).any():
        raise TruthTableError("cin entries must be 0 or 1")

    planes = ripple_add_planes(
        cells, values_to_planes(a.ravel(), n), values_to_planes(b.ravel(), n),
        values_to_planes(carry.ravel(), 1)[0])
    return planes_to_values(planes, a.size).reshape(a.shape)


# Static check: the scalar row addressing and the bit-sliced one
# (``rows[2 * (2a + b) + c]`` in ``_cell_planes``) must be the same
# function; keep them visibly adjacent.
assert row_index(1, 0, 1) == (1 << 2) | (0 << 1) | 1
