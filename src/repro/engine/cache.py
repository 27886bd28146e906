"""Process-wide stage-matrix cache.

The recursion's per-stage work factors into two pieces: deriving the
cell's M/K/L analysis masks from its truth table, and contracting them
with the stage's operand probabilities into the 2x2 success-carry
transition ``v_next = T v`` plus the final functional ``l`` (see
:mod:`repro.explore.hybrid_search` for the derivation).  Both pieces
depend only on ``(cell truth table, P(A_i), P(B_i))`` -- and sweeps,
design-space exploration, hybrid search and repeated service queries hit
the *same* handful of combinations thousands of times.

This module memoises them process-wide:

* :func:`analysis_matrices` / :func:`mask_arrays` -- the M/K/L masks per
  truth-table fingerprint (and their NumPy form for the vectorised
  engine);
* :func:`stage_transition` -- the contracted :class:`StageTransition`
  per ``(fingerprint, quantized P(A), quantized P(B))``, LRU-bounded.

Probabilities are quantized to :data:`QUANT_DIGITS` decimal digits for
key stability (well below the 1e-12 parity tolerance of the analytical
engines).  Hit/miss totals are always tracked locally (cheap integers)
and mirrored into :mod:`repro.obs` counters
(``engine.cache.hits`` / ``engine.cache.misses`` /
``engine.cache.size``) when metrics collection is enabled.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.matrices import AnalysisMatrices, derive_matrices
from ..core.truth_table import FullAdderTruthTable
from ..obs import metrics as _metrics

#: Decimal digits kept when quantizing probabilities into cache keys.
QUANT_DIGITS = 12

#: Default LRU capacity (distinct ``(cell, P(A), P(B))`` combinations).
#: A 64-point x 64-point probability grid over the full 8-cell library
#: fits with room to spare; at ~200 bytes per entry the worst case is a
#: few tens of MB.
DEFAULT_CAPACITY = 65536


@dataclass(frozen=True)
class StageTransition:
    """One stage's contracted update on ``v = (P(C̄∩Succ), P(C∩Succ))``.

    ``apply`` advances the state through a non-final stage
    (K mask -> row 0, M mask -> row 1); ``success`` contracts the state
    entering the *final* stage with the L-mask functional.
    """

    t00: float
    t01: float
    t10: float
    t11: float
    l0: float
    l1: float

    def apply(self, c0: float, c1: float) -> Tuple[float, float]:
        """``v_next = T v``: the Eq. 11 carry update."""
        return (self.t00 * c0 + self.t01 * c1,
                self.t10 * c0 + self.t11 * c1)

    def success(self, c0: float, c1: float) -> float:
        """``P(Succ) = l . v`` at the last stage (Eq. 12)."""
        return self.l0 * c0 + self.l1 * c1

    @property
    def matrix(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """``T[out][in]`` as nested tuples (hybrid-search convention)."""
        return ((self.t00, self.t01), (self.t10, self.t11))

    @property
    def final(self) -> Tuple[float, float]:
        """The final-stage functional ``(l0, l1)``."""
        return (self.l0, self.l1)


def _build_transition(
    mkl: AnalysisMatrices, p_a: float, p_b: float
) -> StageTransition:
    """Contract the M/K/L masks with one stage's operand probabilities."""
    qa, qb = 1.0 - p_a, 1.0 - p_b
    pair = (qa * qb, qa * p_b, p_a * qb, p_a * p_b)
    t00 = t01 = t10 = t11 = l0 = l1 = 0.0
    for row in range(8):
        weight = pair[row >> 1]  # (a<<1 | b) indexes the pair products
        cin = row & 1
        if mkl.k[row]:
            if cin:
                t01 += weight
            else:
                t00 += weight
        if mkl.m[row]:
            if cin:
                t11 += weight
            else:
                t10 += weight
        if mkl.l[row]:
            if cin:
                l1 += weight
            else:
                l0 += weight
    return StageTransition(t00, t01, t10, t11, l0, l1)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache statistics (also exported via obs metrics)."""

    hits: int
    misses: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class StageMatrixCache:
    """LRU cache of stage transitions keyed by
    ``(truth-table fingerprint, quantized P(A), quantized P(B))``.

    ``capacity=0`` disables memoisation entirely (every lookup computes
    and counts as a miss) -- the cold baseline of
    ``benchmarks/bench_engine_cache.py``.  Thread-safe; the derived
    M/K/L masks are cached un-evicted per fingerprint (the cell library
    is tiny: at most ``4**8`` distinct tables exist).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._transitions = OrderedDict()  # type: OrderedDict[tuple, StageTransition]
        self._matrices = {}  # type: Dict[tuple, AnalysisMatrices]
        self._arrays = {}  # type: Dict[tuple, Tuple[np.ndarray, np.ndarray, np.ndarray]]
        self._hits = 0
        self._misses = 0

    @staticmethod
    def fingerprint(table: FullAdderTruthTable) -> tuple:
        """Identity of a cell for caching: its eight ``(sum, cout)`` rows.

        Deliberately *not* the cell name -- two differently-named tables
        with identical rows share cache entries, and ad-hoc tables (for
        example faulted variants) are cached without registration.
        """
        return table.rows

    def analysis_matrices(self, table: FullAdderTruthTable) -> AnalysisMatrices:
        """Cached :func:`repro.core.matrices.derive_matrices`."""
        key = table.rows
        with self._lock:
            mkl = self._matrices.get(key)
            if mkl is not None:
                return mkl
        mkl = derive_matrices(table)
        with self._lock:
            self._matrices.setdefault(key, mkl)
        return mkl

    def mask_arrays(
        self, table: FullAdderTruthTable
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(m, k, l)`` float arrays for the vectorised engine."""
        key = table.rows
        with self._lock:
            arrays = self._arrays.get(key)
            if arrays is not None:
                return arrays
        arrays = self.analysis_matrices(table).as_arrays()
        with self._lock:
            self._arrays.setdefault(key, arrays)
        return arrays

    def stage_transition(
        self, table: FullAdderTruthTable, p_a: float, p_b: float
    ) -> StageTransition:
        """The (possibly cached) contracted transition for one stage."""
        key = (table.rows,
               round(float(p_a), QUANT_DIGITS),
               round(float(p_b), QUANT_DIGITS))
        if self._capacity:
            # Counter read-modify-writes happen only while holding the
            # LRU lock; the obs mirror is updated after release so the
            # cache lock never nests inside the metrics locks.
            with self._lock:
                cached = self._transitions.get(key)
                if cached is not None:
                    self._transitions.move_to_end(key)
                    self._hits += 1
            if cached is not None:
                if _metrics.is_enabled():
                    _metrics.inc("engine.cache.hits")
                return cached
        transition = _build_transition(
            self.analysis_matrices(table), float(p_a), float(p_b)
        )
        with self._lock:
            self._misses += 1
            if self._capacity:
                self._transitions[key] = transition
                self._transitions.move_to_end(key)
                while len(self._transitions) > self._capacity:
                    self._transitions.popitem(last=False)
            size = len(self._transitions)
        if _metrics.is_enabled():
            _metrics.inc("engine.cache.misses")
            _metrics.set_gauge("engine.cache.size", size)
        return transition

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              size=len(self._transitions),
                              capacity=self._capacity)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._transitions.clear()
            self._matrices.clear()
            self._arrays.clear()
            self._hits = 0
            self._misses = 0

    def configure(self, capacity: int) -> None:
        """Resize (0 disables caching); existing entries are trimmed."""
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        with self._lock:
            self._capacity = capacity
            while len(self._transitions) > capacity:
                self._transitions.popitem(last=False)


#: The process-wide cache every engine path shares.
GLOBAL_CACHE = StageMatrixCache()


def stage_transition(
    table: FullAdderTruthTable, p_a: float, p_b: float
) -> StageTransition:
    """Module-level shortcut into :data:`GLOBAL_CACHE`."""
    return GLOBAL_CACHE.stage_transition(table, p_a, p_b)


def analysis_matrices(table: FullAdderTruthTable) -> AnalysisMatrices:
    """Module-level shortcut into :data:`GLOBAL_CACHE`."""
    return GLOBAL_CACHE.analysis_matrices(table)


def mask_arrays(
    table: FullAdderTruthTable,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Module-level shortcut into :data:`GLOBAL_CACHE`."""
    return GLOBAL_CACHE.mask_arrays(table)


def cache_stats() -> CacheStats:
    """Statistics of the process-wide cache."""
    return GLOBAL_CACHE.stats()


def clear_cache() -> None:
    """Empty the process-wide cache (tests, cold benchmarks)."""
    GLOBAL_CACHE.clear()


def configure_cache(capacity: int) -> None:
    """Resize the process-wide cache; ``0`` disables memoisation."""
    GLOBAL_CACHE.configure(capacity)
