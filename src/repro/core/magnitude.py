"""Exact arithmetic-error *magnitude* analysis (extension beyond the paper).

The paper reports the word-level error probability ``P(Error)``;
error-resilient applications also ask *how wrong* an erroneous sum is.
Every answer here is one fold over one table form, the adder's carry
automaton (:class:`CarryTable`): per stage ``i`` with probability ``w``
the state moves and ``D = approx_output - exact_output`` gains
``d * 2^i``.  The paper's Algorithm 1, Roy & Dhar's MED method and Wu
et al.'s block statistics (PAPERS.md) are DPs of this shape.

Three compilers build the table: :func:`chain_table` (a cell chain over
its approximate carry, ``d`` the cell's *local error* ``e`` in
``s + 2 c' = a + b + c + e``, which telescopes to
``D = sum_i e_i 2^i``), :func:`pair_table` (the chain over
``(approximate, exact)`` carry pairs, ``d`` the sum-bit difference) and
:func:`repro.core.adder_zoo.windowed_table` (a block adder over its
monotone carry cut).  Seven folds answer every question:

* :func:`fold_law` -- the law of ``D`` as one dense window per state
  (chains: :func:`error_law`, :func:`error_pmf`); accurate stages add
  ``e = 0``, so a chain with approximate LSBs stays small at any width.
* :func:`fold_sparse` -- the law over one integer key per
  ``(state, delta)``, merged per stage with ``np.unique`` +
  ``np.bincount``: the windowed PMF and, with deltas rounded to a few
  significant bits, both truncated PMFs.  The pair table's partial
  ``D`` is nonzero exactly when a lower bit is wrong, so rounding it
  never turns an error into a non-error; local-error sums can cancel
  later.
* :func:`fold_moments` -- exact ``E[D]`` and ``E[D^2]`` in linear time.
* :func:`fold_extremes` -- the reachable ``[min, max]`` of ``D`` (the
  WCE) in exact integers at any width.
* :func:`fold_nonzero` -- the mass of the paths with a nonzero
  increment, summed without cancellation: ``P(error)`` over the pair
  and windowed tables (the paper's chain ``P(error)`` is its recursion,
  :mod:`repro.core.vectorized`).
* :func:`fold_med` -- exact ``E|D|`` (the MED) in linear time, one
  forward pass of non-negative terms (no cancellation), for tables
  whose every ``d`` is an output-bit difference (the pair and windowed
  tables).
* :func:`fold_mred` -- a certified bracket on ``E[|D| / max(S, 1)]``
  (the MRED, ``S`` the exact sum) in linear time, one backward pass
  from the carry-out down over the same tables: the exact sum's top
  bits exactly, ``1 / S`` below them as an alternating series.

Engines hand a law to their callers as an :class:`ErrorPMF`: two
read-only arrays that iterate as ``(delta, prob)`` pairs.

The guarded folds raise :class:`~repro.core.exceptions.SupportLimitError`
with the width, support size and stage once the support outgrows
``max_entries``, so the engine's router can degrade instead of parsing
the message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .exceptions import AnalysisError, SupportLimitError
from .recursive import CellSpec, resolve_chain
from .truth_table import FullAdderTruthTable
from .types import (
    Probability,
    row_index,
    validate_probability,
    validate_probability_vector,
)

#: Entry guard of the guarded folds.
DEFAULT_MAX_ENTRIES = 2_000_000

#: One stage row: ``(state, next_state, d, v, w)``.
Row = Tuple[int, int, int, int, float]


@dataclass(frozen=True, eq=False)
class CarryTable:
    """An adder compiled to its carry automaton.

    ``start`` lists ``(state, mass, exact value)`` for each initial
    state with nonzero mass, in ascending state order.  ``stages[i]``
    holds bit ``i``'s rows ``(state, next_state, d, v, w)``: with
    probability ``w``, ``D`` gains ``d * 2^i`` and the exact sum
    ``v * 2^i``.  ``final[state] = (d, v)`` is the term at ``2^N``.
    States are ``0 .. states - 1``.

    A row is listed when its operand values are possible; its weight
    can still underflow to 0.0, which the probability folds skip and
    :func:`fold_extremes` (which asks what is *reachable*) does not.
    """

    label: str
    states: int
    start: Tuple[Tuple[int, float, int], ...]
    stages: Tuple[Tuple[Row, ...], ...]
    final: Tuple[Tuple[int, int], ...]

    @property
    def width(self) -> int:
        return len(self.stages)

    def layers(self) -> List[List[Row]]:
        """Each stage's rows with scaled increments, then the final term's.

        Rows become ``(state, next_state, d * 2^i, v * 2^i, w)``; the
        final layer moves every state into state 0 with weight 1.0.
        """
        n = self.width
        return [[(s, s_next, d << i, v << i, w)
                 for s, s_next, d, v, w in rows]
                for i, rows in enumerate(self.stages)] + [
            [(s, 0, d << n, v << n, 1.0)
             for s, (d, v) in enumerate(self.final)]]


def operand_values(p: float) -> List[Tuple[int, float]]:
    """Each possible value of a bit with ``P(1) = p``, with its weight."""
    return [(bit, w) for bit, w in ((0, 1.0 - p), (1, p)) if w != 0.0]


def _transitions(
    table: FullAdderTruthTable, p_a: float, p_b: float
) -> Tuple[Row, ...]:
    """One stage's rows over the approximate carry: ``d`` is the local
    error ``e``, ``v`` is ``a + b``."""
    rows: List[Row] = []
    outputs = table.rows        # bits from operand_values need no check
    for a, wa in operand_values(p_a):
        for b, wb in operand_values(p_b):
            for c in (0, 1):
                s, c_next = outputs[row_index(a, b, c)]
                rows.append(
                    (c, c_next, s + 2 * c_next - a - b - c, a + b, wa * wb))
    return tuple(rows)


def chain_table(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> CarryTable:
    """A chain's two-state local-error table (state: approximate carry).

    ``D`` does not depend on the final carry, and the exact sum starts
    at the carry-in both chains share.
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    pa = validate_probability_vector(p_a, n, "p_a")
    pb = validate_probability_vector(p_b, n, "p_b")
    pc = float(validate_probability(p_cin, "p_cin"))
    # Stages with the same cell and operand laws share one row tuple.
    keys = list(zip(cells, map(float, pa), map(float, pb)))
    rows = {key: _transitions(*key) for key in set(keys)}
    return CarryTable(
        label=f"the width-{n} chain", states=2,
        start=tuple((c, m, c) for c, m in operand_values(pc)),
        stages=tuple(rows[key] for key in keys),
        final=((0, 0), (0, 0)),
    )


def pair_table(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> CarryTable:
    """The chain over ``(approximate carry, exact carry)`` pairs:
    :func:`pair_form` of :func:`chain_table`."""
    return pair_form(chain_table(cell, width, p_a, p_b, p_cin))


def pair_form(chain: CarryTable) -> CarryTable:
    """A :func:`chain_table` over ``(approximate carry, exact carry)``
    pairs.

    The state is ``2 * approx + exact``; ``d`` is the sum-bit
    difference, ``v`` the exact sum bit, and the final term the
    carry-out difference.  The accurate cell's sum and carry depend on
    ``a + b + c`` alone, and the approximate sum bit is
    ``e + a + b + c - 2 c'``.  The start states' exact value is 0: bit
    0's sum bit already counts the carry-in.
    """
    def pairs(rows: Tuple[Row, ...]) -> Tuple[Row, ...]:
        out = []
        for ca, ca_next, e, ab, w in rows:
            for ce in (0, 1):
                se, ce_next = (ab + ce) & 1, (ab + ce) >> 1
                out.append((2 * ca + ce, 2 * ca_next + ce_next,
                            e + ab + ca - 2 * ca_next - se, se, w))
        return tuple(out)

    # Stages that share one row tuple share its pair rows.
    memo = {rows: pairs(rows) for rows in set(chain.stages)}
    return CarryTable(
        label=chain.label, states=4,
        start=tuple((3 * c, m, 0) for c, m, _ in chain.start),
        stages=tuple(memo[rows] for rows in chain.stages),
        final=tuple(((s >> 1) - (s & 1), s & 1) for s in range(4)),
    )


def _check_support(
    table: CarryTable, law: str, size: int, max_entries: int, stage: int
) -> None:
    if size > max_entries:
        raise SupportLimitError(
            f"the {law} support of {table.label} exceeded "
            f"max_entries={max_entries} at stage {stage} ({size} "
            "entries); raise the limit, or use the moments or sampling "
            "for wide adders",
            width=table.width, entries=size, limit=max_entries, stage=stage,
        )


@dataclass(frozen=True, eq=False)
class ErrorPMF:
    """A law of ``D`` as two read-only arrays, deltas and probs.

    ``deltas`` are strictly ascending int64, or exact Python ints in an
    object array once one passes the int64 range (a width-63 or wider
    adder whose top stages err); ``probs`` are float64.  Both are copied
    on construction.  It iterates as ``(delta, prob)`` pairs of
    Python numbers and equals another :class:`ErrorPMF` with the same
    arrays, or a sequence of the same pairs.  :meth:`to_lists` is the
    ``[[delta, prob], ...]`` JSON form.
    """

    deltas: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        try:
            deltas = np.array(self.deltas, dtype=np.int64)
        except OverflowError:   # past int64: exact Python ints
            deltas = np.array([int(d) for d in self.deltas], dtype=object)
        probs = np.array(self.probs, dtype=np.float64)
        if deltas.ndim != 1 or deltas.shape != probs.shape:
            raise AnalysisError(
                f"PMF arrays must be equal-length 1-D, got {deltas.shape} "
                f"and {probs.shape}")
        if np.any(deltas[1:] <= deltas[:-1]):
            raise AnalysisError("PMF deltas must be strictly ascending")
        deltas.flags.writeable = probs.flags.writeable = False
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "probs", probs)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return zip(self.deltas.tolist(), self.probs.tolist())

    def __len__(self) -> int:
        return int(self.deltas.size)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ErrorPMF):
            return bool(np.array_equal(self.deltas, other.deltas)
                        and np.array_equal(self.probs, other.probs))
        if isinstance(other, (tuple, list)):
            return len(other) == len(self) and all(
                isinstance(pair, (tuple, list)) and tuple(pair) == mine
                for pair, mine in zip(other, self))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))     # as the equal tuple of pairs

    def to_lists(self) -> List[List[Union[int, float]]]:
        """``[[delta, prob], ...]``: the JSON pair list."""
        return [[d, p] for d, p in zip(self.deltas.tolist(),
                                        self.probs.tolist())]


# --------------------------------------------------------------------------
# Fold 1: the dense law
# --------------------------------------------------------------------------

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

    def support(self) -> Tuple[np.ndarray, np.ndarray]:
        """Positive-mass ``(deltas, probs)`` arrays, ascending.

        Deltas are int64, or exact Python ints in an object array past
        the int64 range.
        """
        index = np.flatnonzero(self.probs > 0.0)
        if abs(self.lo) + self.step * self.probs.size < 1 << 62:
            deltas = index * self.step + self.lo
        else:  # past int64: exact Python-int arithmetic
            deltas = np.array([self.lo + self.step * k
                               for k in index.tolist()], dtype=object)
        return deltas, self.probs[index]

    def as_dict(self) -> Dict[int, float]:
        """The ``{delta: prob}`` view (positive mass only)."""
        deltas, probs = self.support()
        return dict(zip(deltas.tolist(), probs.tolist()))


def fold_law(
    table: CarryTable, max_entries: int = DEFAULT_MAX_ENTRIES
) -> ErrorLaw:
    """The law of ``D`` as one dense delta window per state.

    Deltas are counted in units of ``2^j``, ``j`` the first stage with
    a nonzero ``d``.  Each layer's moves add ``w`` times a state's
    window, shifted, into its next state's; ``max_entries`` bounds the
    new windows' total size and is checked before they are allocated.
    """
    n = table.width
    j = next((i for i, rows in enumerate(table.stages)
              if any(r[2] for r in rows)), 0)
    # Per state: (lo, probs), probs[k] the mass at delta unit lo + k.
    windows = {s: (0, np.array([m])) for s, m, _ in table.start}
    for i, layer in enumerate(table.layers()):
        moves = [(s, s_next, inc >> j, w) for s, s_next, inc, _, w in layer
                 if w != 0.0 and s in windows]
        spans: Dict[int, Tuple[int, int]] = {}
        for s, s_next, shift, _ in moves:
            lo, probs = windows[s]
            a, b = lo + shift, lo + shift + probs.size
            old = spans.get(s_next)
            spans[s_next] = (a, b) if old is None else (min(old[0], a),
                                                        max(old[1], b))
        _check_support(table, "error", sum(b - a for a, b in spans.values()),
                       max_entries, min(i, n - 1))
        nxt = {s: (a, np.zeros(b - a)) for s, (a, b) in spans.items()}
        for s, s_next, shift, w in moves:
            lo, probs = windows[s]
            base, out = nxt[s_next]
            start = lo + shift - base
            out[start:start + probs.size] += w * probs
        windows = nxt
    lo, probs = windows.get(0, (0, np.zeros(0)))
    return ErrorLaw(lo=lo << j, step=1 << j, probs=probs, width=n)


# --------------------------------------------------------------------------
# Fold 2: the sparse-key law
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SparseLaw:
    """:func:`fold_sparse`'s law as arrays, ascending in ``delta``.

    ``deltas`` are int64, or Python ints in an object array past the
    int64 range; ``probs`` holds the positive float64 masses.  Engines
    read the arrays directly; the public entry points turn them into a
    dict at the boundary (:meth:`as_dict`).
    """

    deltas: np.ndarray
    probs: np.ndarray

    def as_dict(self) -> Dict[int, float]:
        """``{delta: prob}``."""
        return dict(zip(self.deltas.tolist(), self.probs.tolist()))


def _quantized(delta: np.ndarray, bits: int) -> np.ndarray:
    """Round every delta toward zero to *bits* significant binary digits."""
    mag = np.abs(delta)
    # frexp gives the bit length, or one more where the float rounds up.
    length = np.frexp(mag.astype(np.float64))[1].astype(np.int64)
    length -= (mag >> np.maximum(length - 1, 0)) == 0
    shift = np.maximum(length - bits, 0)
    mag = (mag >> shift) << shift
    return np.where(delta < 0, -mag, mag)


def fold_sparse(
    table: CarryTable,
    *,
    quant_bits: Optional[int] = None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> SparseLaw:
    """The law of ``D`` on one integer key per ``(state, delta)``.

    Each stage shifts every state's slice of the sorted keys by its
    rows' increments, then merges equal keys with ``np.unique`` and
    ``np.bincount``; the guard counts the merged ``(state, key)``
    entries, zero-mass ones included.  With *quant_bits*, every partial
    delta is rounded toward zero to that many significant bits before
    the merge: mass is never dropped, so the law still sums to 1.

    Returns the positive-mass entries as a :class:`SparseLaw`,
    ascending in ``delta``.
    """
    n = table.width
    bias = 1 << (n + 2)                  # |partial delta| < 2^(n+2)
    s_shift = n + 3
    top = s_shift + max(1, (table.states - 1).bit_length())
    dtype = np.int64 if top < 63 else object   # past int64: Python ints

    layers = [[(s, ((s_next - s) << s_shift) + d, w)
               for s, s_next, d, _, w in layer if w != 0.0]
              for layer in table.layers()]
    keys = np.array([(s << s_shift) + bias for s, _, _ in table.start],
                    dtype=dtype)
    probs = np.array([m for _, m, _ in table.start])
    for i, moves in enumerate(layers):
        edges = np.searchsorted(
            keys, [s << s_shift for s in range(table.states + 1)]).tolist()
        parts = [(s, step, w) for s, step, w in moves
                 if edges[s] < edges[s + 1]]
        keys = np.concatenate([keys[edges[s]:edges[s + 1]] + step
                               for s, step, _ in parts])
        probs = np.concatenate([probs[edges[s]:edges[s + 1]] * w
                                for s, _, w in parts])
        if quant_bits is not None:
            delta = (keys & ((1 << s_shift) - 1)) - bias
            keys = keys + (_quantized(delta, quant_bits) - delta)
        keys, inverse = np.unique(keys, return_inverse=True)
        probs = np.bincount(inverse, weights=probs, minlength=keys.size)
        _check_support(table, "error", int(keys.size), max_entries,
                       min(i, n - 1))
    keep = probs > 0.0
    return SparseLaw(deltas=keys[keep] - bias, probs=probs[keep])


# --------------------------------------------------------------------------
# Folds 3-5 along paths: moments, extremes, nonzero-increment mass
# --------------------------------------------------------------------------

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


def _path_fold(
    table: CarryTable,
    init: Callable[[float], Any],
    move: Callable[[Any, int, float], Any],
    merge: Callable[[Any, Any], Any],
    reachable: bool = False,
) -> Any:
    """Carry one value per state along every row, the final term
    included (into state 0), and return state 0's value.

    ``move(value, inc, w)`` is the value after a row adding ``inc`` to
    ``D`` (``None`` drops the path); ``merge`` joins values that meet.
    Rows of weight 0.0 are skipped unless *reachable*.
    """
    values = {s: init(m) for s, m, _ in table.start}
    for layer in table.layers():
        nxt: Dict[int, Any] = {}
        for s, s_next, inc, _, w in layer:
            if s not in values or (w == 0.0 and not reachable):
                continue
            out = move(values[s], inc, w)
            if out is not None:
                nxt[s_next] = (out if s_next not in nxt
                               else merge(nxt[s_next], out))
        values = nxt
    return values.get(0)


def fold_moments(table: CarryTable) -> ErrorMoments:
    """Exact ``E[D]`` and ``E[D^2]`` in O(width * rows) time.

    Per state ``s`` we propagate ``(p_s, m1_s, m2_s)`` where
    ``m1_s = E[D * 1_s]`` and ``m2_s = E[D^2 * 1_s]``; a row of weight
    ``w`` adding ``delta`` updates them linearly:

    ``p' += w p``, ``m1' += w (m1 + delta p)``,
    ``m2' += w (m2 + 2 delta m1 + delta^2 p)``.
    """
    def move(stats, inc, w):
        p, m1, m2 = stats
        delta = float(inc)
        return (w * p, w * (m1 + delta * p),
                w * (m2 + 2.0 * delta * m1 + delta * delta * p))

    _, mean, second = _path_fold(
        table, lambda m: (m, 0.0, 0.0), move,
        lambda x, y: (x[0] + y[0], x[1] + y[1], x[2] + y[2]))
    return ErrorMoments(mean=mean, second_moment=second, width=table.width)


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


def fold_extremes(table: CarryTable) -> WorstCaseError:
    """Exact ``min``/``max`` of ``D`` over every listed path.

    The full distribution does not compose stage by stage, but its
    reachable ``[min, max]`` interval per state does.  Rows are listed
    by whether their operand values are possible, not by their
    (possibly underflowed) weight, so the answer is the exact worst
    case *under the given input distribution*, in exact integer
    arithmetic at any width.
    """
    lo, hi = _path_fold(
        table, lambda m: (0, 0),
        lambda span, inc, w: (span[0] + inc, span[1] + inc),
        lambda x, y: (min(x[0], y[0]), max(x[1], y[1])), reachable=True)
    return WorstCaseError(min_delta=lo, max_delta=hi, width=table.width)


def fold_nonzero(table: CarryTable) -> float:
    """Mass of the paths with some nonzero increment.

    The final term counts.  This is ``P(error)`` when ``d`` is an
    output-bit difference (the windowed and pair tables), not for the
    local errors of :func:`chain_table`, which can cancel.  Per state
    the fold carries the mass of the paths still all-zero and of the
    rest; every term is non-negative, so a tiny rate keeps its relative
    precision, which ``1 - P(all zero)`` would lose to cancellation.
    """
    k = table.states
    clean, hit = [0.0] * k, [0.0] * k
    for s, m, _ in table.start:
        clean[s] = m
    final = tuple((s, 0, d, v, 1.0) for s, (d, v) in enumerate(table.final))
    for rows in table.stages + (final,):
        now_clean, now_hit = [0.0] * k, [0.0] * k
        for s, s_next, d, _, w in rows:
            now_hit[s_next] += hit[s] * w
            if d:
                now_hit[s_next] += clean[s] * w
            else:
                now_clean[s_next] += clean[s] * w
        clean, hit = now_clean, now_hit
    return hit[0]


# --------------------------------------------------------------------------
# Folds 6-7: the mean error distance and the mean relative error distance
# --------------------------------------------------------------------------

def _check_output_bits(table: CarryTable, fold: str,
                       sums: bool = False) -> None:
    """Raise :class:`~repro.core.exceptions.AnalysisError` unless every
    ``d`` is in {-1, 0, 1} and, with *sums*, every ``v`` is an exact sum
    bit and every start value 0: the output-bit form of
    :func:`pair_table` and :func:`~repro.core.adder_zoo.windowed_table`.
    """
    rows = [row for stage in {id(s): s for s in table.stages}.values()
            for row in stage]
    incs = {row[2] for row in rows} | {d for d, _ in table.final}
    if not incs <= {-1, 0, 1}:
        raise AnalysisError(
            f"{fold} needs every increment in {{-1, 0, 1}}, but "
            f"{table.label} has d = {max(incs, key=abs)}; fold the "
            "output-bit differences (pair_table for a chain)")
    bits = {row[3] for row in rows} | {v for _, v in table.final}
    if sums and (not bits <= {0, 1} or any(v for _, _, v in table.start)):
        raise AnalysisError(
            f"{fold} needs every v an exact sum bit and every start value "
            f"0, which {table.label} breaks; fold the output-bit "
            "differences (pair_table for a chain)")


def fold_med(table: CarryTable) -> float:
    """Exact ``E|D|`` (the MED) in O(width * rows), free of cancellation.

    Valid where every ``d`` is in {-1, 0, 1}, as for the output-bit
    differences of :func:`pair_table` and
    :func:`~repro.core.adder_zoo.windowed_table`: then before bit ``i``
    the partial ``|D|`` is below ``2^i``, so a nonzero ``d`` sets the
    sign of ``D``.  One forward pass carries, per state, the mass of
    the paths with ``D = 0`` and, for ``D > 0`` and ``D < 0`` apart,
    their mass ``m``, ``u = E[|D| 1]`` and ``c = E[(2^i - |D|) 1]``.
    At bit ``i`` (``t = 2^i``) a row with

    * ``d = 0`` keeps ``u`` and makes ``c + t m``;
    * ``d`` of ``D``'s sign makes ``u + t m`` and keeps ``c``; from
      ``D = 0`` it makes ``u = c = t m``;
    * ``d`` against ``D``'s sign flips it and swaps: ``u' = c``,
      ``c' = u + t m``.

    Every term is a product or sum of non-negative numbers, so the
    MED keeps its relative precision when a long carry mismatch makes
    ``D = 2^(j+L) - 2^(j+L-1) - ... - 2^j`` -- summing the signed
    ``d_i 2^i sign(D)`` instead loses ``eps * 2^(j+L)`` to the
    cancellation.

    Raises :class:`~repro.core.exceptions.AnalysisError` for a table
    with some ``|d| > 1``, where a lower increment can outweigh a higher
    one, as a :func:`chain_table`'s local errors can (LPAA 6's reach
    +-2).
    """
    _check_output_bits(table, "fold_med")
    k = table.states
    final = tuple((s, 0, d, 0, 1.0) for s, (d, _) in enumerate(table.final))
    # Per state: (zero mass, then m, u, c for D > 0, then for D < 0).
    values = [(0.0,) * 7] * k
    for s, m, _ in table.start:
        values[s] = (m,) + (0.0,) * 6
    for i, rows in enumerate(table.stages + (final,)):
        t = 2.0 ** i
        nxt = [[0.0] * 7 for _ in range(k)]
        for s, s_next, d, _, w in rows:
            if w == 0.0:
                continue
            z, pm, pu, pc, nm, nu, nc = values[s]
            out = nxt[s_next]
            if not d:
                out[0] += w * z
                out[1] += w * pm
                out[2] += w * pu
                out[3] += w * (pc + t * pm)
                out[4] += w * nm
                out[5] += w * nu
                out[6] += w * (nc + t * nm)
                continue
            if d < 0:       # mirror: D < 0 plays the role of D > 0
                pm, pu, pc, nm, nu, nc = nm, nu, nc, pm, pu, pc
            j = 1 if d > 0 else 4
            out[j] += w * (z + pm + nm)
            out[j + 1] += w * (t * (z + pm) + pu + nc)
            out[j + 2] += w * (t * (z + nm) + pc + nu)
        values = nxt
    return values[0][2] + values[0][5]


#: Significant bits of the exact sum ``S`` that :func:`fold_mred`
#: tracks exactly before it expands ``1 / S`` as a series.
MRED_HEAD_BITS = 8

#: Highest power of :func:`fold_mred`'s series.
MRED_TERMS = 6


def _mred_channels() -> np.ndarray:
    """One bit's channel map per ``d``, as ``[d + 1, (new, old)]``.

    Channels: the mass with ``D = 0`` so far, then the mass and
    ``E[e] / 2^i`` for ``D > 0``, then for ``D < 0``.  A nonzero ``d``
    from ``D = 0`` sets the sign with ``e = 0``; below it bit ``i``
    adds ``2^i (1 + sign * d)`` to ``e``, so ``e / 2^i`` doubles and
    gains ``1 + sign * d``.
    """
    maps = np.zeros((3, 5, 5))
    for d in (-1, 0, 1):
        maps[d + 1] = np.diag([1.0 - abs(d), 1.0, 2.0, 1.0, 2.0])
        maps[d + 1, 2, 1], maps[d + 1, 4, 3] = 1 + d, 1 - d
        if d:
            maps[d + 1, 1 if d > 0 else 3, 0] = 1.0
    return maps.reshape(3, 25)


_MRED_CHANNELS = _mred_channels()


def _mred_series(bits: int, terms: int) -> Tuple[np.ndarray, ...]:
    """:func:`fold_mred`'s constants for *bits* head bits and powers up
    to *terms*, per power: the step's ``2^t`` and, as ``[j, t]``,
    ``2^-(j+1)`` for ``t <= j`` (0 above, so the unused powers cannot
    overflow), a sum bit's binomial shift ``[new, old] = C(new, old)
    2^old``, each head ``q``'s ``q^-(j+1)`` as ``[j, q - 2^(bits-1)]``,
    and the signs ``(-1)^j``."""
    power = np.arange(terms + 1)
    heads = np.arange(1 << (bits - 1), 1 << bits, dtype=np.float64)
    return (2.0 ** power[:, None],
            np.tril(np.repeat(2.0 ** -(power[:, None] + 1.0), terms + 1, 1)
                    )[:, :, None],
            np.array([[math.comb(new, old) * 2.0 ** old
                       for old in power.tolist()] for new in power.tolist()]),
            heads ** -(power[:, None] + 1.0), (-1.0) ** power)


_MRED_SERIES = _mred_series(MRED_HEAD_BITS, MRED_TERMS)


def fold_mred(table: CarryTable) -> Tuple[float, float]:
    """A certified ``[lo, hi]`` bracket on the MRED
    ``E[|D| / max(S, 1)]``, ``S`` the exact sum, in O(width * rows).

    For the output-bit tables :func:`fold_med` reads whose ``v`` is the
    exact sum bit (:func:`pair_table`,
    :func:`~repro.core.adder_zoo.windowed_table`).  One backward pass
    runs from the carry-out term down to bit 0 over per-row-set
    ``(state, channel)`` matrices, carrying per state the suffix
    paths' statistics:

    * the sign of the first nonzero ``d`` met from the top, which is
      ``D``'s, and ``e = |D_{>=i}| - 2^i``: once the sign is set every
      bit adds ``2^i (1 + sign * d) >= 0`` to ``e``, so nothing cancels,
      and at the end ``|D| = e + 1``;
    * while ``S`` has fewer than ``m`` (:data:`MRED_HEAD_BITS`)
      significant bits, ``S >> i`` exactly, with the mass and ``E[e]``
      per value: those paths' ``|D| / max(S, 1)`` is summed exactly;
    * from the bit ``L`` where the ``m``-th lands, with
      ``S = q 2^L + y``, ``q`` the head: ``E[(e + 1) y^t b_j]`` for
      ``t <= j <= J`` (:data:`MRED_TERMS`), ``b_j = (q 2^L)^-(j+1)``,
      scaled by ``2^((j+1-t) i)`` to stay in range.  A sum bit shifts
      ``y^t`` binomially.

    ``1 / S = sum_j (-1)^j y^j b_j`` with ``y < 2^(1-m) q 2^L``, an
    alternating series of shrinking terms per path, so its last two
    partial sums bracket the MRED; the bracket's relative width stays
    below about ``2^((1-m) J)``.

    Raises :class:`~repro.core.exceptions.AnalysisError` for a table
    with some ``|d| > 1``, some ``v`` not 0 or 1, or a nonzero start
    value (a :func:`chain_table`).
    """
    _check_output_bits(table, "fold_mred", sums=True)
    doubling, scale, shift, entry, signs = _MRED_SERIES
    k, size, cap = table.states, signs.size, entry.shape[1]
    maps: Dict[int, np.ndarray] = {}
    final = tuple((s, 0, d, v, 1.0) for s, (d, v) in enumerate(table.final))
    head = np.zeros((1, 5 * k))     # [S >> i, (state, channel)]
    head[0, 0] = 1.0
    tail = np.zeros((size, size, 5 * k))     # [j, t, (state, channel)]
    tailing = False
    for rows in reversed(table.stages + (final,)):
        moves = maps.get(id(rows))
        if moves is None:       # [(state, channel), (v, state, channel)]
            weights = np.zeros((3, 2, k, k))
            for s, s_next, d, v, w in rows:
                weights[d + 1, v, s, s_next] += w
            bit, src, dst = np.nonzero(weights.any(0))
            moves = np.zeros((k, 5, 2, k, 5))
            moves[dst, :, bit, src] = (
                weights[:, bit, src, dst].T @ _MRED_CHANNELS
            ).reshape(-1, 5, 5).transpose(0, 2, 1)
            moves = maps[id(rows)] = moves.reshape(5 * k, -1)
        if tailing:
            out = (tail.reshape(-1, 5 * k) @ moves).reshape(
                size, size, 2, 5 * k)
            tail = (out[:, :, 0] * doubling + shift @ out[:, :, 1]) * scale
        head = (head @ moves).reshape(-1, 5 * k)    # row 2R + v: S >> i
        if head.shape[0] > cap:     # these reach q >= 2^(m-1)
            tail[:, 0] += entry @ head[cap:]
            head, tailing = head[:cap], True
    start = np.zeros(k)
    for s, m, _ in table.start:
        start[s] = m
    head = head.reshape(-1, k, 5)[:, :, 1:].sum(2) @ start
    exact = float(head[0] + (head[1:] / np.arange(1, head.size)).sum())
    tail = tail.reshape(size * size, k, 5)[::size + 1, :, 1:].sum(2) @ start
    partial = np.cumsum(tail * signs)
    lo, hi = sorted(partial[-2:].tolist())
    return exact + lo, exact + hi


# --------------------------------------------------------------------------
# Chain entry points
# --------------------------------------------------------------------------

def error_law(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> ErrorLaw:
    """Exact law of ``D = approx - exact`` as a dense :class:`ErrorLaw`.

    :func:`fold_law` over :func:`chain_table`; parameters as
    :func:`error_pmf`.
    """
    return fold_law(chain_table(cell, width, p_a, p_b, p_cin), max_entries)


def error_pmf(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> Dict[int, float]:
    """Exact PMF ``{delta: probability}`` of ``D = approx - exact``.

    Positive masses only, ascending exact-int deltas.

    *max_entries* aborts (``SupportLimitError``, an ``AnalysisError``)
    before the reachable ``(carry state, delta)`` windows grow past
    that many entries -- a guard against very wide adders.
    """
    return error_law(cell, width, p_a, p_b, p_cin, max_entries).as_dict()


def error_moments(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> ErrorMoments:
    """Exact ``E[D]`` and ``E[D^2]`` in O(width) time and O(1) memory.

    :func:`fold_moments` over :func:`chain_table`.
    """
    return fold_moments(chain_table(cell, width, p_a, p_b, p_cin))


def worst_case_error(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> WorstCaseError:
    """Exact ``max |D|`` (WCE) in O(width) time and O(1) memory.

    Zero-probability operand values (``p == 0`` or ``p == 1`` bits) are
    excluded (:func:`fold_extremes`).
    """
    return fold_extremes(chain_table(cell, width, p_a, p_b, p_cin))
