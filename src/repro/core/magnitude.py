"""Exact arithmetic-error *magnitude* analysis (extension beyond the paper).

The paper reports the word-level error probability ``P(Error)``.  Error-
resilient applications usually also care about *how wrong* an erroneous
sum is (mean error distance, MSE...).  Every DP here rests on one
identity.  Fed operand bits ``a, b`` and the *approximate* carry ``c``,
a cell produces

``s + 2 c' = a + b + c + e``

where ``e`` in ``[-3, 3]`` is that cell's *local error* (zero on every
row of the accurate cell).  Weighting stage ``i`` by ``2^i`` and summing
telescopes the carries, so the numeric difference of the whole adder is

``D = approx_output - exact_output = sum_i e_i(a_i, b_i, c_i) * 2^i``

-- a function of the approximate carry chain alone.  Because each
stage's operand bits are independent of its carry-in, that carry is the
same two-state Markov chain as the paper's recursion, and
:func:`_transitions` is its one transition table: per stage, every
reachable ``(a, b, c)`` row with its weight, next carry and ``e``.

* :func:`error_law` -- the full law of ``D`` as a dense NumPy array
  per carry state over its reachable delta window; each stage is at
  most eight slice updates shifted by ``e * 2^i``.  Accurate stages add
  ``e = 0``, so their windows do not grow: a chain with approximate
  LSBs stays small at any width.  Guarded by ``max_entries``.
  :func:`error_pmf` is its ``{delta: prob}`` view.
* :func:`error_moments` -- exact ``E[D]`` and ``E[D^2]`` for *any*
  width in linear time, by propagating per-state first/second moments
  instead of full distributions.
* :func:`worst_case_error` -- exact ``max |D|`` (WCE) for *any* width
  in linear time, by propagating the reachable ``[min, max]`` delta
  interval per carry state (extremes compose stage-by-stage even
  though the full distribution does not).
* :func:`joint_error_pmf` -- the joint law of ``(D, exact sum)``,
  from which the mean *relative* error distance (MRED) falls out
  exactly; support is bounded by ``2^(N+1)`` exact values times the
  delta support, so the same ``max_entries`` guard applies.

All support hybrid chains and per-bit probabilities, and are
cross-validated against exhaustive enumeration and each other.  When a
guarded DP outgrows ``max_entries`` it raises
:class:`~repro.core.exceptions.SupportLimitError` carrying the width,
support size and stage, so callers (the engine's distribution router)
can degrade to a truncated DP or Monte-Carlo instead of parsing the
message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exceptions import SupportLimitError
from .recursive import CellSpec, resolve_chain
from .truth_table import FullAdderTruthTable
from .types import (
    Probability,
    validate_probability,
    validate_probability_vector,
)

#: One reachable row of a stage: ``(c, c_next, e, a + b, weight)``.
Transition = Tuple[int, int, int, int, float]

#: Per carry state: ``(lo, probs)`` with ``probs[k]`` the mass at the
#: window's ``lo + k``-th delta unit.
_Windows = Dict[int, Tuple[int, np.ndarray]]


def _transitions(
    table: FullAdderTruthTable, p_a: float, p_b: float
) -> List[Transition]:
    """The stage's reachable rows as approximate-carry transitions.

    A row is listed when both its operand values have nonzero
    probability; its weight ``P(a) P(b)`` can still underflow to 0.0,
    which the probability DPs skip and :func:`worst_case_error` (which
    asks what is *reachable*) does not.
    """
    rows: List[Transition] = []
    for a in (0, 1):
        wa = p_a if a else 1.0 - p_a
        if wa == 0.0:
            continue
        for b in (0, 1):
            wb = p_b if b else 1.0 - p_b
            if wb == 0.0:
                continue
            for c in (0, 1):
                s, c_next = table.evaluate(a, b, c)
                rows.append(
                    (c, c_next, s + 2 * c_next - a - b - c, a + b, wa * wb))
    return rows


def _stages(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int],
    p_a: Union[Probability, Sequence[Probability]],
    p_b: Union[Probability, Sequence[Probability]],
    p_cin: Probability,
) -> Tuple[int, float, List[List[Transition]]]:
    """``(width, p_cin, per-stage transition tables)`` of a chain."""
    cells = resolve_chain(cell, width)
    n = len(cells)
    pa = validate_probability_vector(p_a, n, "p_a")
    pb = validate_probability_vector(p_b, n, "p_b")
    pc = float(validate_probability(p_cin, "p_cin"))
    return n, pc, [_transitions(table, float(pa[i]), float(pb[i]))
                   for i, table in enumerate(cells)]


def _carry_in(pc: float) -> Dict[int, float]:
    """Both chains share the carry-in: its states with nonzero mass."""
    return {c: m for c, m in ((0, 1.0 - pc), (1, pc)) if m > 0.0}


@dataclass(frozen=True, eq=False)
class ErrorLaw:
    """Dense law of ``D``: ``probs[k] = P(D = lo + k * step)``.

    ``lo`` and ``step`` are exact Python ints (``lo`` can pass the int64
    range at width 64); ``step`` is ``2^j`` for the first stage ``j``
    with a reachable nonzero local error, since every delta is a
    multiple of it.  Entries inside the window may be zero.
    """

    lo: int
    step: int
    probs: np.ndarray
    width: int

    def deltas(self) -> np.ndarray:
        """Every window entry's delta as float64 (exact below 2^53)."""
        return float(self.lo) + float(self.step) * np.arange(
            self.probs.size, dtype=np.float64)

    def support(self) -> Tuple[List[int], List[float]]:
        """Positive-mass ``(deltas, probs)``, ascending; exact int deltas."""
        index = np.flatnonzero(self.probs > 0.0)
        if abs(self.lo) + self.step * self.probs.size < 1 << 62:
            deltas = (index * self.step + self.lo).tolist()
        else:  # past int64: exact Python-int arithmetic
            deltas = [self.lo + self.step * k for k in index.tolist()]
        return deltas, self.probs[index].tolist()

    def as_dict(self) -> Dict[int, float]:
        """The ``{delta: prob}`` view (positive mass only)."""
        deltas, probs = self.support()
        return dict(zip(deltas, probs))

    @property
    def error_rate(self) -> float:
        """``P(D != 0)``, summed without the zero entry (not ``1 - P(0)``,
        which would lose a tiny rate to cancellation)."""
        zero, rem = divmod(-self.lo, self.step)
        if rem or not 0 <= zero < self.probs.size:
            return float(self.probs.sum())
        return float(self.probs[:zero].sum() + self.probs[zero + 1:].sum())

    @property
    def wce(self) -> int:
        """``max |D|`` over the positive-mass entries (0 if none)."""
        index = np.flatnonzero(self.probs > 0.0)
        if not index.size:
            return 0
        return max(abs(self.lo + self.step * int(index[0])),
                   abs(self.lo + self.step * int(index[-1])))


def _step_windows(
    windows: _Windows,
    moves: Sequence[Tuple[int, int, int, float]],
    n: int,
    stage: int,
    max_entries: int,
) -> _Windows:
    """Apply ``(c, c_next, shift, w)`` moves: ``nxt[c_next]`` gains
    ``w * windows[c]`` shifted by ``shift`` units.  The guard runs on
    the new windows' total size before anything is allocated."""
    spans: Dict[int, Tuple[int, int]] = {}
    for c, c_next, shift, _ in moves:
        lo, probs = windows[c]
        a, b = lo + shift, lo + shift + probs.size
        old = spans.get(c_next)
        spans[c_next] = (a, b) if old is None else (min(old[0], a),
                                                    max(old[1], b))
    size = sum(b - a for a, b in spans.values())
    if size > max_entries:
        raise SupportLimitError(
            f"error_pmf support for the width-{n} chain exceeded "
            f"max_entries={max_entries} at stage {stage} ({size} "
            f"(state, delta) window entries); raise the limit, set "
            "prune_below, or use error_moments() for wide adders",
            width=n, entries=size, limit=max_entries, stage=stage,
        )
    nxt = {c: (a, np.zeros(b - a)) for c, (a, b) in spans.items()}
    for c, c_next, shift, w in moves:
        lo, probs = windows[c]
        base, out = nxt[c_next]
        start = lo + shift - base
        out[start:start + probs.size] += w * probs
    return nxt


def _pruned(windows: _Windows, floor: float) -> _Windows:
    """Zero entries below *floor* and trim each window to its mass."""
    out: _Windows = {}
    for c, (lo, probs) in windows.items():
        probs[probs < floor] = 0.0
        keep = np.flatnonzero(probs)
        if keep.size:
            out[c] = (lo + int(keep[0]), probs[keep[0]:keep[-1] + 1])
    return out


def error_law(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    max_entries: int = 2_000_000,
    prune_below: float = 0.0,
) -> ErrorLaw:
    """Exact law of ``D = approx - exact`` as a dense :class:`ErrorLaw`.

    Parameters as :func:`error_pmf`.  ``max_entries`` bounds the total
    size of the per-carry-state delta windows and is checked before
    each stage allocates them.
    """
    n, pc, stages = _stages(cell, width, p_a, p_b, p_cin)
    j = next((i for i, rows in enumerate(stages) if any(r[2] for r in rows)),
             0)
    windows: _Windows = {c: (0, np.array([m]))
                         for c, m in _carry_in(pc).items()}
    for i, rows in enumerate(stages):
        # Stages before j add e = 0 on every reachable row.
        unit = 1 << (i - j) if i >= j else 0
        moves = [(c, c_next, e * unit, w) for c, c_next, e, _, w in rows
                 if w != 0.0 and c in windows]
        windows = _step_windows(windows, moves, n, i, max_entries)
        if prune_below > 0.0:
            windows = _pruned(windows, prune_below)
    # D does not depend on the final carry: fold both states together.
    windows = _step_windows(
        windows, [(c, 0, 0, 1.0) for c in windows], n, n - 1, max_entries)
    lo, probs = windows.get(0, (0, np.zeros(0)))
    return ErrorLaw(lo=lo << j, step=1 << j, probs=probs, width=n)


def error_pmf(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    max_entries: int = 2_000_000,
    prune_below: float = 0.0,
) -> Dict[int, float]:
    """Exact PMF of ``D = approx - exact`` for the whole adder output.

    Parameters
    ----------
    max_entries:
        Abort (``SupportLimitError``, an ``AnalysisError``) before the
        reachable ``(carry state, delta)`` window grows past this many
        entries -- a guard against pathological very wide adders.
    prune_below:
        Optionally drop deltas whose accumulated mass is below this
        threshold (default 0: fully exact).  When pruning, the returned
        PMF may sum to slightly less than 1.

    Returns
    -------
    dict
        ``{delta: probability}`` with strictly positive probabilities,
        in ascending delta order; deltas are exact ints.
    """
    return error_law(cell, width, p_a, p_b, p_cin, max_entries,
                     prune_below).as_dict()


@dataclass(frozen=True)
class ErrorMoments:
    """Exact first/second moments of the arithmetic error ``D``."""

    mean: float
    second_moment: float
    width: int

    @property
    def variance(self) -> float:
        """``Var[D] = E[D^2] - E[D]^2`` (clamped at 0 for rounding)."""
        return max(self.second_moment - self.mean * self.mean, 0.0)

    @property
    def rms(self) -> float:
        """Root-mean-square error ``sqrt(E[D^2])``."""
        return self.second_moment ** 0.5

    @property
    def normalized_rms(self) -> float:
        """RMS divided by the maximum exact output ``2^(N+1) - 1``."""
        return self.rms / float((1 << (self.width + 1)) - 1)


def error_moments(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> ErrorMoments:
    """Exact ``E[D]`` and ``E[D^2]`` in O(width) time and O(1) memory.

    Per carry state ``c`` we propagate ``(p_c, m1_c, m2_c)`` where
    ``m1_c = E[D * 1_c]`` and ``m2_c = E[D^2 * 1_c]``; a transition of
    weight ``w`` adding ``delta = e * 2^i`` updates them linearly:

    ``p' += w p``, ``m1' += w (m1 + delta p)``,
    ``m2' += w (m2 + 2 delta m1 + delta^2 p)``.
    """
    n, pc, stages = _stages(cell, width, p_a, p_b, p_cin)
    stats = [[1.0 - pc, 0.0, 0.0], [pc, 0.0, 0.0]]
    for i, rows in enumerate(stages):
        weight_bit = float(1 << i)
        nxt = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        for c, c_next, e, _, w in rows:
            p, m1, m2 = stats[c]
            delta = e * weight_bit
            acc = nxt[c_next]
            acc[0] += w * p
            acc[1] += w * (m1 + delta * p)
            acc[2] += w * (m2 + 2.0 * delta * m1 + delta * delta * p)
        stats = nxt
    return ErrorMoments(mean=stats[0][1] + stats[1][1],
                        second_moment=stats[0][2] + stats[1][2], width=n)


@dataclass(frozen=True)
class WorstCaseError:
    """Exact extremes of the arithmetic error ``D`` (all exact integers)."""

    min_delta: int
    max_delta: int
    width: int

    @property
    def wce(self) -> int:
        """Worst-case error ``max |D|`` over the reachable support."""
        return max(abs(self.min_delta), abs(self.max_delta))

    @property
    def normalized_wce(self) -> float:
        """WCE divided by the maximum exact output ``2^(N+1) - 1``."""
        return self.wce / float((1 << (self.width + 1)) - 1)


def worst_case_error(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> WorstCaseError:
    """Exact ``max |D|`` (WCE) in O(width) time and O(1) memory.

    The full delta *distribution* does not compose linearly, but its
    reachable ``[min, max]`` interval does: per carry state we track
    the extreme deltas attainable with positive probability, and each
    stage shifts them by the extreme ``e * 2^i`` local errors of its
    reachable transitions.  Zero-probability operand values (``p == 0``
    or ``p == 1`` bits) are excluded, so the answer is the exact worst
    case *under the given input distribution*, in exact integer
    arithmetic at any width.
    """
    n, pc, stages = _stages(cell, width, p_a, p_b, p_cin)
    # carry state -> (min reachable delta, max reachable delta); states
    # with zero probability mass are simply absent.
    spans: Dict[int, Tuple[int, int]] = {c: (0, 0) for c in _carry_in(pc)}
    for i, rows in enumerate(stages):
        nxt: Dict[int, Tuple[int, int]] = {}
        for c, c_next, e, _, _ in rows:
            if c not in spans:
                continue
            lo, hi = spans[c]
            inc = e << i
            cur = nxt.get(c_next)
            nxt[c_next] = ((lo + inc, hi + inc) if cur is None else
                           (min(cur[0], lo + inc), max(cur[1], hi + inc)))
        spans = nxt
    return WorstCaseError(min_delta=min(lo for lo, _ in spans.values()),
                          max_delta=max(hi for _, hi in spans.values()),
                          width=n)


def joint_error_pmf(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    max_entries: int = 2_000_000,
    prune_below: float = 0.0,
) -> Dict[Tuple[int, int], float]:
    """Exact joint PMF of ``(D, exact sum)``.

    Extends the :func:`error_pmf` DP with the exact sum's partial value
    ``cin + sum_k (a_k + b_k) 2^k``, so relative-error metrics (MRED:
    ``E[|D| / max(exact, 1)]``) come out exactly instead of
    sample-only.  Support is bounded by the ``2^(N+1)`` exact values
    times the per-value delta support, so the practical width limit is
    lower than :func:`error_pmf`'s (~12 bits at the default guard);
    past it a :class:`SupportLimitError` is raised.

    Returns ``{(delta, exact_sum): probability}``.
    """
    n, pc, stages = _stages(cell, width, p_a, p_b, p_cin)
    # carry state -> {(delta, exact partial value): prob}; the exact
    # partial value starts at the carry-in both chains share.
    dists: Dict[int, Dict[Tuple[int, int], float]] = {
        c: {(0, c): m} for c, m in _carry_in(pc).items()}
    for i, rows in enumerate(stages):
        nxt: Dict[int, Dict[Tuple[int, int], float]] = {}
        for c, c_next, e, ab, w in rows:
            dist = dists.get(c)
            if not dist or w == 0.0:
                continue
            delta_inc, value_inc = e << i, ab << i
            bucket = nxt.setdefault(c_next, {})
            for (delta, value), prob in dist.items():
                key = (delta + delta_inc, value + value_inc)
                bucket[key] = bucket.get(key, 0.0) + prob * w
        if prune_below > 0.0:
            for bucket in nxt.values():
                stale = [k for k, p in bucket.items() if p < prune_below]
                for k in stale:
                    del bucket[k]
        size = sum(len(bucket) for bucket in nxt.values())
        if size > max_entries:
            raise SupportLimitError(
                f"joint_error_pmf support for the width-{n} chain "
                f"exceeded max_entries={max_entries} at stage {i} "
                f"({size} (state, delta, value) entries); raise the "
                "limit, set prune_below, or estimate MRED by sampling",
                width=n, entries=size, limit=max_entries, stage=i,
            )
        dists = nxt

    joint: Dict[Tuple[int, int], float] = {}
    for dist in dists.values():
        for key, prob in dist.items():
            joint[key] = joint.get(key, 0.0) + prob
    return {k: p for k, p in joint.items() if p > 0.0}


def relative_error_from_joint(
    joint: Dict[Tuple[int, int], float]
) -> float:
    """MRED ``E[|D| / max(exact, 1)]`` from a :func:`joint_error_pmf`."""
    return float(sum(
        abs(delta) / float(max(value, 1)) * prob
        for (delta, value), prob in joint.items()
    ))
