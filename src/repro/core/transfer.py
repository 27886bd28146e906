"""Segment transfer matrices: exact O(log N) composition of the recursion.

The paper's stage recursion (Eq. 11) advances the success-conditioned
carry vector ``v = (P(C̄∩Succ), P(C∩Succ))`` through one linear map per
stage, and contracts the final state with the L-mask functional
(Eq. 12).  Linear maps compose associatively, so any contiguous *segment*
of stages collapses into a single 2x2 matrix plus a final-row functional
-- and a whole chain becomes O(log N) compositions over a canonical
segment tree whose aligned sub-blocks are shared between every chain
that extends the same prefix (:mod:`repro.engine.segcache` stores them
content-addressed, like the disk result cache).

**Exactness contract.**  Floating-point summation is *not* associative,
so a float-matrix composition could never promise the same bits as the
stage-by-stage reference.  This module therefore computes in exact
dyadic arithmetic: every IEEE-754 probability is a dyadic rational
``num / 2**exp`` (:meth:`float.as_integer_ratio`), and products and sums
of dyadics are exact integer arithmetic.  Exact composition *is*
associative, which yields three guarantees at once:

* the evaluated ``P(Succ)`` is the correctly-rounded float of the exact
  rational value -- bit-identical to
  :func:`repro.core.recursive.analyze_chain` run in its documented exact
  mode (``fractions.Fraction`` operands flow through untouched);
* the segment-tree bracketing cannot change the answer, so any prefix /
  suffix split -- and therefore any cache hit pattern -- returns the
  same bits as a cold stage-by-stage evaluation (warm == cold);
* batched and single evaluations agree bit-for-bit with no
  fixed-order summation discipline needed (the float path's canonical
  row-order sums in ``core.vectorized._stage_sums`` are subsumed: exact
  sums have no rounding order).

Entry points: :func:`lower_stage` turns one ``(cell, P(A), P(B))`` stage
into a :class:`SegmentMatrix`; :func:`compose` joins two adjacent
segments; :func:`evaluate` contracts a segment with the carry-in law
into the correctly-rounded ``P(Succ)``; :func:`chain_matrix` builds the
canonical aligned decomposition of a whole chain (pluggable ``leaf`` /
``combine`` hooks are the cache's seam); :func:`analyze_chain_transfer`
is the convenience one-call form.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .matrices import derive_matrices
from .recursive import CellSpec, resolve_chain
from .truth_table import FullAdderTruthTable
from .types import validate_probability, validate_probability_vector

#: Decimal digits kept when quantising probabilities into content keys:
#: the segment tier's leaf keys here and the disk result store's request
#: keys (:mod:`repro.engine.diskcache`) both use it.
KEY_QUANT_DIGITS = 12


def _dyadic(value: float) -> Tuple[int, int]:
    """*value* as ``(num, exp)`` with ``value = num / 2**exp``, exactly.

    Every finite IEEE-754 double is a dyadic rational; probabilities in
    ``[0, 1]`` always yield ``exp >= 0``.
    """
    num, den = float(value).as_integer_ratio()
    exp = den.bit_length() - 1
    if 1 << exp != den:  # pragma: no cover - impossible for finite floats
        raise ValueError(f"{value!r} is not a dyadic rational")
    return num, exp


@dataclass(frozen=True)
class SegmentMatrix:
    """The exact transfer map of one contiguous run of adder stages.

    The six integers encode, over the common power-of-two denominator
    ``2**exp``:

    * ``t00 t01 / t10 t11`` -- the 2x2 carry update ``v' = T v`` a
      non-final segment applies to ``v = (P(C̄∩Succ), P(C∩Succ))``
      (``T[out][in]``, matching the stage maps of
      :mod:`repro.explore.hybrid_search`);
    * ``l0 l1`` -- the success functional of the segment's *last* stage
      composed with the stages before it: ``P(Succ) = l . v`` when the
      segment is the chain's tail (Eq. 12).

    ``span`` counts the stages covered; ``key`` is the segment's content
    address -- a Merkle hash over (truth-table rows, quantised operand
    probabilities) for leaves and over the child keys for composites, so
    equal keys mean equal stage content and the store can be shared
    across processes without trusting pickles.

    Representations are canonical: the common power of two dividing all
    six numerators is stripped (:func:`_normalise`), so equal values
    have equal fields and composition is associative at the field level,
    not just the value level.
    """

    span: int
    exp: int
    t00: int
    t01: int
    t10: int
    t11: int
    l0: int
    l1: int
    key: str

    def entries(self) -> Tuple[int, int, int, int, int, int]:
        return (self.t00, self.t01, self.t10, self.t11, self.l0, self.l1)


def _normalise(entries: Sequence[int], exp: int) -> Tuple[Tuple[int, ...], int]:
    """Strip the largest common power of two (canonical dyadic form)."""
    lowest: Optional[int] = None
    for value in entries:
        if value:
            bits = (value & -value).bit_length() - 1
            lowest = bits if lowest is None else min(lowest, bits)
            if lowest == 0:
                break
    if lowest is None:  # all-zero matrix: denominator is meaningless
        return tuple(entries), 0
    shift = min(lowest, exp)
    if shift == 0:
        return tuple(entries), exp
    return tuple(value >> shift for value in entries), exp - shift


def leaf_key(table: FullAdderTruthTable, p_a: float, p_b: float) -> str:
    """Content address of a single-stage segment.

    Probabilities are quantised to :data:`KEY_QUANT_DIGITS` decimal
    digits -- the library-wide keying convention (stage-matrix LRU, disk
    result store), well below the 1e-12 parity tolerance of the
    analytical engines.
    """
    doc = repr(("sealpaa-segment-leaf-v1", table.rows,
                round(float(p_a), KEY_QUANT_DIGITS),
                round(float(p_b), KEY_QUANT_DIGITS)))
    return hashlib.sha256(doc.encode()).hexdigest()


def node_key(left_key: str, right_key: str) -> str:
    """Content address of the composition of two adjacent segments."""
    doc = f"sealpaa-segment-node-v1:{left_key}:{right_key}"
    return hashlib.sha256(doc.encode()).hexdigest()


def lower_stage(
    table: FullAdderTruthTable, p_a: float, p_b: float
) -> SegmentMatrix:
    """Lower one ``(cell, P(A), P(B))`` stage to its exact transfer map.

    Expands the M/K/L mask contraction of the float stage kernel
    (:func:`repro.core.vectorized._stage_sums`) in dyadic integers: the
    four operand-pair weights ``(q_a q_b, q_a p_b, p_a q_b, p_a p_b)``
    are brought to one common denominator, then routed to the ``T`` rows
    (K mask -> row 0, M mask -> row 1) and the ``l`` functional by carry
    bit, exactly as the float path does -- but with no rounding.
    """
    mkl = derive_matrices(table)
    an, ae = _dyadic(p_a)
    bn, be = _dyadic(p_b)
    # Complements in integer space: (2**e - n) / 2**e is exact for every
    # operand, where float ``1.0 - p`` would round for p below ~2**-53.
    qan, qbn = (1 << ae) - an, (1 << be) - bn
    exp = ae + be
    weights = [qan * qbn, qan * bn, an * qbn, an * bn]
    t = [0, 0, 0, 0, 0, 0]  # t00 t01 t10 t11 l0 l1
    for row in range(8):
        weight = weights[row >> 1]  # (a<<1 | b) indexes the pair weights
        cin = row & 1
        if mkl.k[row]:
            t[0 + cin] += weight
        if mkl.m[row]:
            t[2 + cin] += weight
        if mkl.l[row]:
            t[4 + cin] += weight
    entries, exp = _normalise(t, exp)
    return SegmentMatrix(1, exp, *entries, key=leaf_key(table, p_a, p_b))


def compose(left: SegmentMatrix, right: SegmentMatrix) -> SegmentMatrix:
    """The transfer map of *left* followed by *right* (exact).

    The carry block is the matrix product ``T = T_right @ T_left``; the
    success functional is *right*'s functional pulled back through
    *left*'s carry block (``l = l_right . T_left``), because only the
    chain's final stage contributes its L row.  Associative by
    construction: integer arithmetic has no rounding to reorder.
    """
    a00, a01, a10, a11, al0, al1 = left.entries()
    b00, b01, b10, b11, bl0, bl1 = right.entries()
    entries, exp = _normalise(
        (b00 * a00 + b01 * a10, b00 * a01 + b01 * a11,
         b10 * a00 + b11 * a10, b10 * a01 + b11 * a11,
         bl0 * a00 + bl1 * a10, bl0 * a01 + bl1 * a11),
        left.exp + right.exp,
    )
    return SegmentMatrix(left.span + right.span, exp, *entries,
                         key=node_key(left.key, right.key))


def evaluate(segment: SegmentMatrix, p_cin: float) -> float:
    """``P(Succ)`` of the chain *segment* covers, correctly rounded.

    Contracts the success functional with the exact carry-in law
    ``v = (1 - p_cin, p_cin)`` and performs the one and only rounding of
    the whole pipeline: Python's big-int true division, which rounds
    correctly to nearest-even -- the same float ``fractions.Fraction``
    conversion produces, hence bit-identity with the exact-mode
    reference recursion.
    """
    cn, ce = _dyadic(p_cin)
    c0 = (1 << ce) - cn  # exact complement (see lower_stage)
    num = segment.l0 * c0 + segment.l1 * cn
    if num == 0:
        return 0.0
    return num / (1 << (segment.exp + ce))


LeafFn = Callable[[FullAdderTruthTable, float, float], SegmentMatrix]
CombineFn = Callable[[SegmentMatrix, SegmentMatrix], SegmentMatrix]


def aligned_blocks(n: int) -> Iterator[Tuple[int, int]]:
    """The canonical decomposition of ``[0, n)`` into aligned blocks.

    Yields left-to-right ``(lo, hi)`` spans where each span is a power
    of two and ``lo`` is a multiple of the span (Fenwick alignment).
    Alignment is what makes sub-blocks shareable: every chain longer
    than ``k`` decomposes the prefix ``[0, k_aligned)`` into the *same*
    blocks, so a content-addressed store hits them regardless of total
    chain length.  At most ``2*log2(n)`` blocks are yielded.
    """
    if n < 1:
        raise ValueError(f"need at least one stage, got {n}")
    lo = 0
    while lo < n:
        limit = 1 << ((n - lo).bit_length() - 1)  # largest pow2 <= rest
        align = lo & -lo or limit                 # alignment of lo
        size = min(align, limit)
        yield lo, lo + size
        lo += size


def _block(
    cells: Sequence[FullAdderTruthTable],
    p_a: Sequence[float],
    p_b: Sequence[float],
    lo: int,
    hi: int,
    leaf: LeafFn,
    combine: CombineFn,
) -> SegmentMatrix:
    """One aligned power-of-two block, built from its aligned halves.

    The recursion shape is fixed by ``(lo, hi)`` alone, so every process
    asks the cache for the same node keys in the same places.
    """
    if hi - lo == 1:
        return leaf(cells[lo], p_a[lo], p_b[lo])
    mid = (lo + hi) // 2
    return combine(_block(cells, p_a, p_b, lo, mid, leaf, combine),
                   _block(cells, p_a, p_b, mid, hi, leaf, combine))


def chain_matrix(
    cells: Sequence[FullAdderTruthTable],
    p_a: Sequence[float],
    p_b: Sequence[float],
    leaf: Optional[LeafFn] = None,
    combine: Optional[CombineFn] = None,
) -> SegmentMatrix:
    """The whole-chain transfer map over the canonical segment tree.

    Aligned power-of-two blocks are built bottom-up from aligned halves
    and folded left to right.  *leaf* and *combine* default (``None``)
    to the pure builders :func:`lower_stage` / :func:`compose`;
    :class:`repro.engine.segcache.SegmentCache` passes its memoised
    versions, which is the entire integration seam -- the tree shape
    (and, by exactness, the value) is identical either way.
    """
    leaf = lower_stage if leaf is None else leaf
    combine = compose if combine is None else combine
    n = len(cells)
    if not (len(p_a) == len(p_b) == n):
        raise ValueError(
            f"need one probability pair per stage: got {len(p_a)}/{len(p_b)} "
            f"for {n} stages"
        )
    out: Optional[SegmentMatrix] = None
    for lo, hi in aligned_blocks(n):
        block = _block(cells, p_a, p_b, lo, hi, leaf, combine)
        out = block if out is None else combine(out, block)
    assert out is not None
    return out


def analyze_chain_transfer(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[float, Sequence[float]] = 0.5,
    p_b: Union[float, Sequence[float]] = 0.5,
    p_cin: float = 0.5,
    leaf: Optional[LeafFn] = None,
    combine: Optional[CombineFn] = None,
) -> float:
    """``P(Succ)`` of a chain via segment transfer matrices.

    Accepts the library-wide ``(cell, width, p_a, p_b, p_cin)``
    convention of :func:`~repro.core.recursive.analyze_chain` and
    returns the identical bits that function produces in exact
    (``Fraction``-operand) mode -- see the module docstring for why the
    float-mode recursion cannot be the bit reference.

    >>> from fractions import Fraction
    >>> from repro.core.recursive import analyze_chain
    >>> exact = analyze_chain("LPAA 2", 16, Fraction(3, 10),
    ...                       Fraction(3, 10), Fraction(1, 2)).p_success
    >>> analyze_chain_transfer("LPAA 2", 16, 0.3, 0.3, 0.5) == float(exact)
    True
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    pa = [float(p) for p in validate_probability_vector(p_a, n, "p_a")]
    pb = [float(p) for p in validate_probability_vector(p_b, n, "p_b")]
    pc = float(validate_probability(p_cin, "p_cin"))
    return evaluate(chain_matrix(cells, pa, pb, leaf, combine), pc)
