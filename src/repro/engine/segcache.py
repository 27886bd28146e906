"""A memory-LRU of segment transfer matrices for prefix-sharing sweeps.

:mod:`repro.core.transfer` collapses any contiguous run of adder stages
into one exact :class:`~repro.core.transfer.SegmentMatrix`; this module
is where a caller can *keep* those matrices.  Exact sweeps that share
chain prefixes -- a million-config sweep over one adder family rebuilds
the same 64-stage prefix a million times -- then turn O(N) work per
config into O(log N) lookups per chain and O(1) amortised work per
shared prefix (``benchmarks/bench_prefix_cache.py``).

:class:`SegmentCache` is a library object the caller builds and
passes; the executor never consults one.  Un-forced chain questions
always run the float stage kernel (:mod:`repro.core.vectorized`), which
is cheaper than even an all-hit segment lookup at paper widths, and the
``transfer`` engine builds its canonical tree directly.

The memory tier holds *leaves* keyed ``(truth-table rows, quantised
P(A), quantised P(B))`` and *composed nodes* keyed by their children's
content keys -- pure dict lookups on the hot path, no hashing.  Because
segment composition is exact (see the transfer module's exactness
contract), a cache hit can never change an answer: warm and cold
evaluations are bit-identical by construction.  One deliberate caveat:
keys quantise probabilities to
:data:`~repro.core.transfer.KEY_QUANT_DIGITS` decimal digits -- the
library-wide identity convention shared with the result cache -- so two
*distinct* probabilities closer than 1e-12 are treated as the same stage
and served by the first-seen representative, exactly as the result
cache already does for whole requests.

Obs metrics: ``engine.cache.segment.{hits,misses}`` counters and the
``engine.cache.segment.size`` gauge.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence

from ..core.transfer import (
    KEY_QUANT_DIGITS,
    SegmentMatrix,
    chain_matrix,
    compose,
    evaluate,
    lower_stage,
)
from ..core.truth_table import FullAdderTruthTable
from ..obs import metrics as _metrics

#: Default memory-tier capacity (leaves + composed nodes together).  A
#: 64-stage chain contributes ~127 canonical nodes; tens of thousands of
#: entries cover a large design-space sweep's shared structure.
DEFAULT_MEMORY_ENTRIES = 65536


class SegmentCache:
    """A bounded LRU of segment transfer matrices.

    Matrices are held under their *construction* keys -- ``(rows,
    quantised p_a, quantised p_b)`` for leaves, ``(left.key, right.key)``
    for composed nodes -- so the hot path is plain dict traffic.  One
    shared LRU bounds both shapes together.

    ``memory_entries=0`` disables memoisation (every lookup builds and
    counts as a miss), the cold baseline of
    ``benchmarks/bench_prefix_cache.py``.  Thread-safe; hit/miss totals
    are mirrored into the ``engine.cache.segment.*`` obs counters when
    metrics collection is enabled.
    """

    def __init__(self, memory_entries: int = DEFAULT_MEMORY_ENTRIES) -> None:
        if memory_entries < 0:
            raise ValueError(
                f"memory_entries must be >= 0, got {memory_entries}"
            )
        self._memory_entries = memory_entries
        self._segments = OrderedDict()  # type: OrderedDict[tuple, SegmentMatrix]
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def _get(self, key: tuple) -> Optional[SegmentMatrix]:
        with self._lock:
            matrix = self._segments.get(key)
            if matrix is not None:
                self._segments.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
        if _metrics.is_enabled():
            _metrics.inc("engine.cache.segment.hits" if matrix is not None
                         else "engine.cache.segment.misses")
        return matrix

    def _remember(self, key: tuple, matrix: SegmentMatrix) -> None:
        if not self._memory_entries:
            return
        with self._lock:
            self._segments[key] = matrix
            self._segments.move_to_end(key)
            while len(self._segments) > self._memory_entries:
                self._segments.popitem(last=False)
            size = len(self._segments)
        if _metrics.is_enabled():
            _metrics.set_gauge("engine.cache.segment.size", size)

    # -- cache-through builders (the transfer module's leaf/combine seam) ----

    @staticmethod
    def leaf_id(table: FullAdderTruthTable, p_a: float, p_b: float) -> tuple:
        return (table.rows,
                round(float(p_a), KEY_QUANT_DIGITS),
                round(float(p_b), KEY_QUANT_DIGITS))

    def leaf(self, table: FullAdderTruthTable,
             p_a: float, p_b: float) -> SegmentMatrix:
        """Cached :func:`~repro.core.transfer.lower_stage`."""
        key = self.leaf_id(table, p_a, p_b)
        matrix = self._get(key)
        if matrix is None:
            matrix = lower_stage(table, p_a, p_b)
            self._remember(key, matrix)
        return matrix

    def combine(self, left: SegmentMatrix,
                right: SegmentMatrix) -> SegmentMatrix:
        """Cached :func:`~repro.core.transfer.compose`."""
        key = (left.key, right.key)
        matrix = self._get(key)
        if matrix is None:
            matrix = compose(left, right)
            self._remember(key, matrix)
        return matrix

    # -- chain-level entry points -------------------------------------------

    def chain_root(
        self,
        cells: Sequence[FullAdderTruthTable],
        p_a: Sequence[float],
        p_b: Sequence[float],
    ) -> SegmentMatrix:
        """The whole-chain matrix over the canonical segment tree, every
        node served through this cache."""
        return chain_matrix(cells, p_a, p_b,
                            leaf=self.leaf, combine=self.combine)

    def success_probability(
        self,
        cells: Sequence[FullAdderTruthTable],
        p_a: Sequence[float],
        p_b: Sequence[float],
        p_cin: float,
    ) -> float:
        """``P(Succ)`` via the cached segment tree (bit-identical to the
        exact-mode reference recursion regardless of cache state)."""
        return evaluate(self.chain_root(cells, p_a, p_b), p_cin)

    # -- accounting -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Memory-tier statistics (JSON-ready)."""
        with self._lock:
            memory = {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._segments),
                "capacity": self._memory_entries,
            }
        return {"memory": memory}

    def clear_memory(self) -> None:
        """Drop every cached segment and reset the counters."""
        with self._lock:
            self._segments.clear()
            self._hits = 0
            self._misses = 0
