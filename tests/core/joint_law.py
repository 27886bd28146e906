"""A test-local joint law of ``(D, exact sum)`` over a carry table.

The library answers MRED with a linear fold and keeps no joint law;
tests that want an independent reference walk a table's rows here, one
merged array of ``(state, D, S)`` entries per stage.  The support grows
with the ``2^(N+1)`` exact sums, so this is for narrow adders only.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.core.magnitude import CarryTable


def joint_law(table: CarryTable) -> Tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
    """``(deltas, sums, probs)`` of *table*'s positive-mass paths, the
    final term and the start values included."""
    n = table.width
    bias, shift = 1 << (n + 2), n + 3
    state = np.array([s for s, _, _ in table.start], dtype=np.int64)
    sums = np.array([v for _, _, v in table.start], dtype=np.int64)
    deltas = np.zeros_like(state)
    probs = np.array([m for _, m, _ in table.start])
    final = tuple((s, 0, d, v, 1.0) for s, (d, v) in enumerate(table.final))
    for i, rows in enumerate(table.stages + (final,)):
        parts = []
        for s, s_next, d, v, w in rows:
            hit = state == s
            if w != 0.0 and hit.any():
                parts.append((np.full(int(hit.sum()), s_next),
                              deltas[hit] + (d << i), sums[hit] + (v << i),
                              probs[hit] * w))
        state, deltas, sums, probs = (np.concatenate(column)
                                      for column in zip(*parts))
        keys, inverse = np.unique(
            (((state << shift) + deltas + bias) << shift) + sums,
            return_inverse=True)
        probs = np.bincount(inverse, weights=probs, minlength=keys.size)
        state = keys >> (2 * shift)
        deltas = ((keys >> shift) & ((1 << shift) - 1)) - bias
        sums = keys & ((1 << shift) - 1)
    keep = probs > 0.0
    return deltas[keep], sums[keep], probs[keep]


def joint_dict(table: CarryTable) -> Dict[Tuple[int, int], float]:
    """:func:`joint_law` as ``{(delta, exact sum): prob}``."""
    deltas, sums, probs = joint_law(table)
    return dict(zip(zip(deltas.tolist(), sums.tolist()), probs.tolist()))


def joint_mred(table: CarryTable) -> float:
    """``E[|D| / max(S, 1)]`` over :func:`joint_law`, summed with
    ``math.fsum``."""
    deltas, sums, probs = joint_law(table)
    return math.fsum((np.abs(deltas) / np.maximum(sums, 1) * probs).tolist())
