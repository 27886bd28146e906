"""The segment tier: memory-LRU -> disk store of segment transfer matrices.

:mod:`repro.core.transfer` collapses any contiguous run of adder stages
into one exact :class:`~repro.core.transfer.SegmentMatrix`; this module
is where those matrices are *kept*.  Sweeps, serve traffic and Pareto
exploration share chain prefixes heavily -- a million-config sweep over
one adder family rebuilds the same 64-stage prefix a million times --
so caching segments turns O(N) per config into O(log N) lookups per
chain and O(1) amortised work per shared prefix.

Three levels, mirroring the result cache (:mod:`repro.engine.diskcache`):

* an in-memory LRU of *leaves* keyed ``(truth-table rows, quantised
  P(A), quantised P(B))`` and of *composed nodes* keyed by their
  children's content keys -- pure dict lookups on the hot path, no
  hashing;
* an optional :class:`DiskSegmentStore` (same atomic-write /
  corruption-tolerant / concurrently-prunable machinery as the result
  store) holding segments of span >= ``min_disk_span`` content-addressed
  by their Merkle key, shared across processes and restarts;
* warm-start: :meth:`SegmentCache.prefill` loads the newest disk
  entries back into the memory tier on boot (``sealpaa serve
  --segment-cache-dir``).

Because segment composition is exact (see the transfer module's
exactness contract), a cache hit can never change an answer -- warm and
cold evaluations are bit-identical by construction, which is what makes
this tier safe to share across workers and restarts without replay
provenance.  One deliberate caveat: keys quantise probabilities to
:data:`~repro.core.transfer.KEY_QUANT_DIGITS` decimal digits -- the
library-wide identity convention shared with the stage-matrix LRU and
the result cache -- so two *distinct* probabilities closer than 1e-12
are treated as the same stage and served by the first-seen
representative, exactly as the result cache already does for whole
requests.

Obs metrics: ``engine.cache.segment.{hits,misses}`` counters and the
``engine.cache.segment.size`` gauge for the memory tier;
``engine.cache.segment.disk.{hits,misses,writes,corrupt,evictions,
races}`` and ``engine.cache.segment.disk.entries`` for the disk tier.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.transfer import (
    KEY_QUANT_DIGITS,
    SegmentMatrix,
    chain_matrix,
    compose,
    evaluate,
    lower_stage,
    node_key,
)
from ..core.truth_table import FullAdderTruthTable
from ..obs import metrics as _metrics
from .diskcache import DiskResultStore

#: On-disk entry format tag (bump on incompatible layout change).
SEGMENT_STORE_FORMAT = "sealpaa-segcache-v1"

#: Default memory-tier capacity (leaves + composed nodes together).  A
#: 64-stage chain contributes ~127 canonical nodes; tens of thousands of
#: entries cover a large design-space sweep's shared structure.
DEFAULT_MEMORY_ENTRIES = 65536

#: Smallest segment span persisted to disk.  Leaves and short segments
#: rebuild in microseconds -- writing them would turn a cold sweep into
#: an IO storm for no warm-start value; long segments are the expensive,
#: heavily-shared ones.
DEFAULT_MIN_DISK_SPAN = 8


def _payload_from_matrix(matrix: SegmentMatrix,
                         children: Optional[Tuple[str, str]],
                         leaf_id: Optional[tuple]) -> Dict[str, object]:
    """JSON entry payload: the six numerators travel as hex strings
    (they are hundreds to thousands of bits for generic probabilities).
    ``children`` / ``leaf_id`` let :meth:`SegmentCache.prefill` re-index
    the entry into the memory tier's native keys."""
    doc: Dict[str, object] = {
        "span": matrix.span,
        "exp": matrix.exp,
        "t": [format(value, "x") if value >= 0 else "-" +
              format(-value, "x") for value in matrix.entries()],
    }
    if children is not None:
        doc["left"], doc["right"] = children
    if leaf_id is not None:
        rows, q_a, q_b = leaf_id
        doc["rows"] = [list(row) for row in rows]
        doc["p_a"], doc["p_b"] = q_a, q_b
    return doc


def _matrix_from_payload(key: str, payload: Dict[str, object]) -> SegmentMatrix:
    entries = [int(text, 16) for text in payload["t"]]  # type: ignore[union-attr]
    return SegmentMatrix(int(payload["span"]), int(payload["exp"]),  # type: ignore[arg-type]
                         *entries, key=key)


def _validate_segment_payload(payload: object) -> Dict[str, object]:
    """Schema check for one disk entry; ``ValueError`` on anything off."""
    if not isinstance(payload, dict):
        raise ValueError("payload is not an object")
    span = payload.get("span")
    exp = payload.get("exp")
    if not isinstance(span, int) or span < 1:
        raise ValueError(f"bad span: {span!r}")
    if not isinstance(exp, int) or exp < 0:
        raise ValueError(f"bad exponent: {exp!r}")
    entries = payload.get("t")
    if not isinstance(entries, list) or len(entries) != 6:
        raise ValueError("payload needs six matrix entries")
    for text in entries:
        int(str(text), 16)  # raises ValueError on garbage
    return payload


class DiskSegmentStore(DiskResultStore):
    """Segment matrices on disk, content-addressed by Merkle key.

    Inherits the result store's entry layout, atomic replacement,
    corruption-tolerant reads and concurrent pruning wholesale -- only
    the format tag, the metric namespace and the payload schema differ.
    """

    store_format = SEGMENT_STORE_FORMAT
    metric_prefix = "engine.cache.segment.disk"

    validate_payload = staticmethod(_validate_segment_payload)


class SegmentCache:
    """Memory-LRU over an optional :class:`DiskSegmentStore`.

    The memory tier holds :class:`~repro.core.transfer.SegmentMatrix`
    objects under their *construction* keys -- ``(rows, quantised p_a,
    quantised p_b)`` for leaves, ``(left.key, right.key)`` for composed
    nodes -- so the hot path is plain dict traffic; the SHA content
    address riding inside each matrix is only touched at the disk
    boundary.  One shared LRU bounds both shapes together.

    ``memory_entries=0`` disables memoisation (every lookup builds and
    counts as a miss), the cold baseline of
    ``benchmarks/bench_prefix_cache.py``.  Thread-safe; hit/miss totals
    are mirrored into the ``engine.cache.segment.*`` obs counters when
    metrics collection is enabled.
    """

    def __init__(
        self,
        store: Optional[DiskSegmentStore] = None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        min_disk_span: int = DEFAULT_MIN_DISK_SPAN,
    ) -> None:
        if memory_entries < 0:
            raise ValueError(
                f"memory_entries must be >= 0, got {memory_entries}"
            )
        if min_disk_span < 1:
            raise ValueError(
                f"min_disk_span must be >= 1, got {min_disk_span}"
            )
        self.store = store
        self.min_disk_span = min_disk_span
        self._memory_entries = memory_entries
        self._segments = OrderedDict()  # type: OrderedDict[tuple, SegmentMatrix]
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    # -- memory tier ---------------------------------------------------------

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
        if matrix is not None:
            return matrix
        matrix = lower_stage(table, p_a, p_b)
        self._remember(key, matrix)
        self._spill(matrix, children=None, leaf=key)
        return matrix

    def combine(self, left: SegmentMatrix,
                right: SegmentMatrix) -> SegmentMatrix:
        """Cached :func:`~repro.core.transfer.compose`: memory first,
        then the disk tier (span permitting), then an exact compose."""
        key = (left.key, right.key)
        matrix = self._get(key)
        if matrix is not None:
            return matrix
        span = left.span + right.span
        if self.store is not None and span >= self.min_disk_span:
            payload = self.store.get(node_key(left.key, right.key))
            if payload is not None:
                matrix = _matrix_from_payload(
                    node_key(left.key, right.key), payload)
                self._remember(key, matrix)
                return matrix
        matrix = compose(left, right)
        self._remember(key, matrix)
        self._spill(matrix, children=key, leaf=None)
        return matrix

    def _spill(self, matrix: SegmentMatrix,
               children: Optional[Tuple[str, str]],
               leaf: Optional[tuple]) -> None:
        if self.store is None or matrix.span < self.min_disk_span:
            return
        self.store.put(matrix.key,
                       _payload_from_matrix(matrix, children, leaf))

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

    # -- lifecycle / accounting ---------------------------------------------

    def prefill(self, limit: Optional[int] = None) -> int:
        """Warm-start: promote disk entries into the memory tier.

        Loads the newest entries first (a bounded memory tier keeps the
        most recently useful segments), re-indexing each under its
        native memory key -- child content keys for composed nodes, the
        ``(rows, p_a, p_b)`` triple for leaves.  Returns the number of
        segments loaded; unreadable or schema-less entries are skipped
        (and counted corrupt by the store's read path).
        """
        if self.store is None or not self._memory_entries:
            return 0
        budget = self._memory_entries if limit is None \
            else min(limit, self._memory_entries)
        loaded = 0
        for key in self.store.list_keys(newest_first=True):
            if loaded >= budget:
                break
            payload = self.store.get(key)
            if payload is None:
                continue
            if "left" in payload and "right" in payload:
                memory_key: tuple = (str(payload["left"]),
                                     str(payload["right"]))
            elif "rows" in payload:
                rows = tuple(tuple(int(bit) for bit in row)
                             for row in payload["rows"])  # type: ignore[union-attr]
                memory_key = (rows, float(payload["p_a"]),  # type: ignore[arg-type]
                              float(payload["p_b"]))  # type: ignore[arg-type]
            else:
                continue  # an old entry without re-index hints
            self._remember(memory_key, _matrix_from_payload(key, payload))
            loaded += 1
        return loaded

    def stats(self) -> Dict[str, object]:
        """Combined memory/disk statistics (JSON-ready, dashboard shape)."""
        with self._lock:
            memory = {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._segments),
                "capacity": self._memory_entries,
            }
        doc: Dict[str, object] = {"memory": memory}
        if self.store is not None:
            disk = self.store.stats()
            doc["disk"] = {
                "hits": disk.hits, "misses": disk.misses,
                "writes": disk.writes, "corrupt": disk.corrupt,
                "evictions": disk.evictions, "races": disk.races,
            }
        return doc

    def clear_memory(self) -> None:
        """Drop the memory tier and reset its counters (disk survives)."""
        with self._lock:
            self._segments.clear()
            self._hits = 0
            self._misses = 0


#: The process-wide segment cache the executor consults; ``None`` until
#: :func:`configure_segment_cache` opts the process in.
_SEGMENT_CACHE: Optional[SegmentCache] = None


def configure_segment_cache(
    path: Optional[Union[str, Path]] = None,
    memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    max_disk_entries: Optional[int] = None,
    min_disk_span: int = DEFAULT_MIN_DISK_SPAN,
) -> SegmentCache:
    """Install the process-wide segment tier.

    *path* mounts the persistent disk store (``None`` keeps a
    memory-only tier).  Once installed, ``engine.run`` / ``run_batch``
    route eligible chain requests through the segment path -- a pure
    configuration switch, never a cache-state-dependent one, so results
    stay bit-identical whichever tier serves them.
    """
    global _SEGMENT_CACHE
    store = (DiskSegmentStore(path, max_entries=max_disk_entries)
             if path is not None else None)
    _SEGMENT_CACHE = SegmentCache(store, memory_entries=memory_entries,
                                  min_disk_span=min_disk_span)
    return _SEGMENT_CACHE


def disable_segment_cache() -> None:
    """Uninstall the process-wide segment tier (disk entries survive)."""
    global _SEGMENT_CACHE
    _SEGMENT_CACHE = None


def get_segment_cache() -> Optional[SegmentCache]:
    """The installed process-wide segment cache, or ``None``."""
    return _SEGMENT_CACHE
