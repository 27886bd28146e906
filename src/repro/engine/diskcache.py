"""Persistent result cache: finished answers that outlive the process.

A service answering the same handful of analytical questions thousands
of times per design loop would otherwise re-derive every answer after
each restart.  This module adds a result tier: a content-addressed
on-disk store of finished
:class:`~repro.engine.request.AnalysisResult` values, fronted by a small
in-memory LRU, shared across processes and restarts.

Keying follows the library-wide fingerprint convention -- the
truth-table rows of every cell in the chain plus the
:data:`~repro.core.transfer.KEY_QUANT_DIGITS`-quantised probability
vectors -- hashed to one SHA-256 content address.  Only deterministic, exact,
non-truncated analytical chain answers are stored (the executor consults
:attr:`EngineInfo.deterministic <repro.engine.registry.EngineInfo>`), so
a hit is always bit-identical to a recompute on the same code version.

Entries are one JSON file each, written atomically through the
:func:`repro.io.atomic_write_text` primitive (temp file + ``os.replace``
in the same directory), which makes concurrent multi-process writers
safe by construction: readers observe either the old complete entry or
the new complete entry, never a torn one.  The read path is
corruption-tolerant -- a truncated, garbage or wrong-key entry is
counted under ``engine.cache.disk.corrupt``, deleted best-effort and
treated as a miss, never raised.

Any number of processes may prune and unlink concurrently: an entry
that vanishes underneath a ``stat``/``unlink`` (another pruner got
there first) is tolerated and counted under
``engine.cache.disk.races`` -- never raised.

Obs metrics:
``engine.cache.disk.{hits,misses,writes,corrupt,evictions,races}``
counters and the ``engine.cache.disk.entries`` gauge for the disk tier;
``engine.cache.result.{hits,misses}`` and ``engine.cache.result.size``
for the in-memory result LRU in front of it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from ..core.transfer import KEY_QUANT_DIGITS
from ..obs import metrics as _metrics
from ..runtime import chaos as _chaos
from .request import (
    DISTRIBUTION_KINDS,
    KIND_CHAIN,
    AnalysisRequest,
    AnalysisResult,
)

#: On-disk entry document format tag (bump on incompatible layout change;
#: old-format entries then read as corrupt -> miss -> rewrite).
STORE_FORMAT = "sealpaa-diskcache-v1"

#: Default capacity of the in-memory result LRU fronting the disk tier.
DEFAULT_MEMORY_ENTRIES = 4096

#: Writes between opportunistic disk-eviction scans (scans are O(entries)).
_PRUNE_EVERY = 256

#: Result fields that round-trip through an entry payload.
_PAYLOAD_FIELDS = (
    "p_error", "p_success", "engine", "exact", "width", "kind",
    "cell_names", "is_upper_bound",
)

#: Error-magnitude fields stored when present (``None`` values are
#: omitted, so plain P(error) entries keep their original shape and old
#: entries stay readable).
_MAGNITUDE_FIELDS = ("med", "nmed", "mse", "wce", "mred", "bias")

#: Request kinds the cache can address (chain-shaped operands whose
#: answer is a pure function of the request).
_CACHEABLE_KINDS = (KIND_CHAIN,) + DISTRIBUTION_KINDS


def request_key(request: AnalysisRequest) -> Optional[str]:
    """Content address of a cacheable request, or ``None``.

    Plain analytical chain questions and the error-magnitude kinds
    (:data:`~repro.engine.request.DISTRIBUTION_KINDS`) are addressable:
    both are pure functions of ``(kind, cells, operand probabilities)``.
    Correlated (``joints``) and traced requests depend on state the
    payload cannot carry, and the multiop kind keeps its own native
    result shape.  ``check_masking`` is part of the identity because
    it decides the stored ``is_upper_bound`` flag; ``kind`` is part of
    the hashed document, so a ``med`` answer can never replay to a
    ``wce`` question over the same chain.
    """
    if (request.kind not in _CACHEABLE_KINDS or request.joints is not None
            or request.keep_trace):
        return None
    if request.block is not None:
        # Windowed-block (zoo) questions: the spec's structure is the
        # identity (zoo adders always add with carry-in 0).
        doc: Dict[str, object] = {
            "format": STORE_FORMAT,
            "kind": request.kind,
            "block": {
                "name": request.block.name,  # type: ignore[attr-defined]
                "lows": list(request.block.lows),  # type: ignore[attr-defined]
                "carry_low": request.block.carry_low,  # type: ignore[attr-defined]
            },
            "p_a": [round(float(p), KEY_QUANT_DIGITS) for p in request.p_a],
            "p_b": [round(float(p), KEY_QUANT_DIGITS) for p in request.p_b],
            "check_masking": bool(request.check_masking),
        }
    elif not request.cells:
        return None
    else:
        doc = {
            "format": STORE_FORMAT,
            "kind": request.kind,
            "cells": [list(map(list, table.rows))
                      for table in request.cells],
            "p_a": [round(float(p), KEY_QUANT_DIGITS) for p in request.p_a],
            "p_b": [round(float(p), KEY_QUANT_DIGITS) for p in request.p_b],
            "p_cin": round(float(request.p_cin), KEY_QUANT_DIGITS),
            "check_masking": bool(request.check_masking),
        }
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def payload_from_result(result: AnalysisResult) -> Dict[str, object]:
    """The JSON-safe subset of a result an entry stores."""
    payload = {name: getattr(result, name) for name in _PAYLOAD_FIELDS}
    payload["cell_names"] = list(result.cell_names)
    for name in _MAGNITUDE_FIELDS:
        value = getattr(result, name)
        if value is not None:
            payload[name] = value
    if result.distribution is not None:
        payload["distribution"] = [
            [delta, prob] for delta, prob in result.distribution
        ]
    return payload


def result_from_payload(payload: Dict[str, object]) -> AnalysisResult:
    """Rebuild an :class:`AnalysisResult` from a stored payload."""
    magnitude: Dict[str, object] = {}
    for name in _MAGNITUDE_FIELDS:
        value = payload.get(name)
        if value is not None:
            magnitude[name] = float(value)  # type: ignore[arg-type]
    pairs = payload.get("distribution")
    if pairs is not None:
        magnitude["distribution"] = tuple(
            (int(delta), float(prob)) for delta, prob in pairs  # type: ignore[union-attr]
        )
    return AnalysisResult(
        p_error=float(payload["p_error"]),          # type: ignore[arg-type]
        p_success=float(payload["p_success"]),      # type: ignore[arg-type]
        engine=str(payload["engine"]),
        exact=bool(payload["exact"]),
        width=int(payload["width"]),                # type: ignore[arg-type]
        kind=str(payload.get("kind", KIND_CHAIN)),
        cell_names=tuple(payload.get("cell_names") or ()),  # type: ignore[arg-type]
        is_upper_bound=bool(payload.get("is_upper_bound", False)),
        **magnitude,  # type: ignore[arg-type]
    )


def _validate_payload(payload: object) -> Dict[str, object]:
    """Schema check: raises ``ValueError`` on anything malformed."""
    if not isinstance(payload, dict):
        raise ValueError("payload is not an object")
    for name in _PAYLOAD_FIELDS:
        if name not in payload:
            raise ValueError(f"payload misses field {name!r}")
    for name in ("p_error", "p_success"):
        value = payload[name]
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            raise ValueError(f"payload {name} out of [0,1]: {value!r}")
    for name in _MAGNITUDE_FIELDS:
        if name in payload and not isinstance(payload[name], (int, float)):
            raise ValueError(f"payload {name} is not a number")
    pairs = payload.get("distribution")
    if pairs is not None:
        if not isinstance(pairs, list) or any(
            not isinstance(pair, list) or len(pair) != 2
            or not isinstance(pair[0], int)
            or not isinstance(pair[1], (int, float))
            for pair in pairs
        ):
            raise ValueError("payload distribution is not a PMF pair list")
    return payload


@dataclass(frozen=True)
class DiskStoreStats:
    """Point-in-time disk-tier statistics (also exported via obs)."""

    hits: int
    misses: int
    writes: int
    corrupt: int
    evictions: int
    #: Cross-process races survived: an entry another process deleted
    #: between our listing/probing it and our stat/unlink of it.
    races: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DiskResultStore:
    """Content-addressed result entries under one root directory.

    Layout: ``<root>/<key[:2]>/<key>.json`` -- two-level fan-out keeps
    directory listings short at hundreds of thousands of entries.  All
    mutation goes through atomic whole-file replacement, so any number
    of processes may read and write one store concurrently.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0
        self._evictions = 0
        self._races = 0

    def entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _count(self, field: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, f"_{field}", getattr(self, f"_{field}") + n)
        if _metrics.is_enabled():
            _metrics.inc(f"engine.cache.disk.{field}", n)

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload for *key*, or ``None`` (miss).

        Every failure mode of the read path -- unreadable file, invalid
        JSON, wrong format tag, wrong embedded key, malformed payload --
        degrades to a miss; a corrupt entry is additionally deleted
        (best-effort) so the slot is rewritten on the next ``put``.
        """
        path = self.entry_path(key)
        try:
            _chaos.cache_read_check(str(path))
            raw = path.read_bytes()
        except OSError:
            self._count("misses")
            return None
        try:
            doc = json.loads(raw.decode())
            if not isinstance(doc, dict) \
                    or doc.get("format") != STORE_FORMAT:
                raise ValueError(f"not a {STORE_FORMAT} document")
            if doc.get("key") != key:
                raise ValueError("entry key does not match its address")
            payload = _validate_payload(doc.get("payload"))
        except (ValueError, TypeError, KeyError):
            self._count("corrupt")
            self._count("misses")
            try:
                os.unlink(path)
            except FileNotFoundError:
                # Another process unlinked the corrupt entry between our
                # read and our delete -- the outcome we wanted anyway.
                self._count("races")
            except OSError:
                pass
            return None
        self._count("hits")
        return payload

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Store *payload* under *key* (atomic whole-file replace)."""
        from ..io import atomic_write_text

        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"format": STORE_FORMAT, "key": key, "payload": payload}
        atomic_write_text(path, json.dumps(doc, sort_keys=True) + "\n")
        self._count("writes")
        if _metrics.is_enabled():
            _metrics.set_gauge("engine.cache.disk.entries",
                               self.entry_count())
        if self.max_entries is not None and self._writes % _PRUNE_EVERY == 0:
            self.prune()

    def entry_count(self) -> int:
        """Number of entry files currently on disk."""
        return sum(1 for _ in self.root.glob("??/*.json"))

    def prune(self, max_entries: Optional[int] = None) -> int:
        """Evict oldest entries (by mtime) beyond *max_entries*.

        Concurrent pruners and writers are tolerated: an entry deleted
        underneath us -- between listing and ``stat``, or between
        ``stat`` and ``unlink`` -- is skipped and counted under
        ``races``, never raised.  Returns the eviction count.
        """
        limit = max_entries if max_entries is not None else self.max_entries
        if limit is None:
            return 0
        entries = []
        races = 0
        for path in self.root.glob("??/*.json"):
            try:
                entries.append((path.stat().st_mtime, path))
            except FileNotFoundError:
                races += 1
            except OSError:
                continue
        excess = len(entries) - limit
        evicted = 0
        if excess > 0:
            entries.sort(key=lambda item: item[0])
            for _, path in entries[:excess]:
                try:
                    os.unlink(path)
                    evicted += 1
                except FileNotFoundError:
                    # A concurrent pruner beat us to this entry; its
                    # eviction is already counted in that process.
                    races += 1
                except OSError:
                    continue
        if races:
            self._count("races", races)
        if evicted:
            self._count("evictions", evicted)
        return evicted

    def clear(self) -> None:
        """Delete every entry (counters are kept: they describe the run)."""
        for path in self.root.glob("??/*.json"):
            try:
                os.unlink(path)
            except OSError:
                pass

    def stats(self) -> DiskStoreStats:
        with self._lock:
            return DiskStoreStats(
                hits=self._hits, misses=self._misses, writes=self._writes,
                corrupt=self._corrupt, evictions=self._evictions,
                races=self._races,
            )


class ResultCache:
    """Two-tier result cache: in-memory LRU over a :class:`DiskResultStore`.

    ``get_result`` walks memory -> disk -> miss; a disk hit is promoted
    into the memory tier, and ``put_result`` writes through both.  The
    disk tier is optional (``store=None`` gives a process-local result
    LRU only), which is how tests exercise the tiers independently.
    """

    def __init__(
        self,
        store: Optional[DiskResultStore] = None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        if memory_entries < 0:
            raise ValueError(
                f"memory_entries must be >= 0, got {memory_entries}"
            )
        self.store = store
        self._memory_entries = memory_entries
        self._memory = OrderedDict()  # type: OrderedDict[str, AnalysisResult]
        self._lock = threading.Lock()
        self._memory_hits = 0
        self._memory_misses = 0

    def get_result(self, request: AnalysisRequest) -> Optional[AnalysisResult]:
        """Cached answer for *request*, or ``None``."""
        key = request_key(request)
        if key is None:
            return None
        return self.get_by_key(key)

    def get_by_key(self, key: str) -> Optional[AnalysisResult]:
        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                self._memory.move_to_end(key)
                self._memory_hits += 1
            else:
                self._memory_misses += 1
        if result is not None:
            if _metrics.is_enabled():
                _metrics.inc("engine.cache.result.hits")
            return result
        if _metrics.is_enabled():
            _metrics.inc("engine.cache.result.misses")
        if self.store is None:
            return None
        payload = self.store.get(key)
        if payload is None:
            return None
        result = result_from_payload(payload)
        self._remember(key, result)
        return result

    def put_result(self, request: AnalysisRequest,
                   result: AnalysisResult) -> bool:
        """Write-through store of one finished answer.

        Returns ``False`` (and stores nothing) for requests outside the
        cacheable subset or answers that must not be replayed: inexact,
        truncated, or produced by a non-deterministic engine.
        """
        key = request_key(request)
        if key is None or not cacheable_result(result):
            return False
        self._remember(key, result)
        if self.store is not None:
            self.store.put(key, payload_from_result(result))
        return True

    def _remember(self, key: str, result: AnalysisResult) -> None:
        if not self._memory_entries:
            return
        with self._lock:
            self._memory[key] = result
            self._memory.move_to_end(key)
            while len(self._memory) > self._memory_entries:
                self._memory.popitem(last=False)
            size = len(self._memory)
        if _metrics.is_enabled():
            _metrics.set_gauge("engine.cache.result.size", size)

    def stats(self) -> Dict[str, object]:
        """Combined memory/disk statistics (JSON-ready)."""
        with self._lock:
            memory = {
                "hits": self._memory_hits,
                "misses": self._memory_misses,
                "size": len(self._memory),
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
        """Drop the memory tier (disk entries survive -- that is the point)."""
        with self._lock:
            self._memory.clear()


def cacheable_result(result: AnalysisResult) -> bool:
    """May *result* be replayed to a future identical request?

    Exact, non-truncated, and produced by an engine the registry marks
    ``deterministic`` (analytical recursions; never Monte-Carlo, whose
    answer depends on seed and sample budget).
    """
    from .registry import REGISTRY

    if not result.exact or result.truncated:
        return False
    if result.engine not in REGISTRY:
        return False
    return REGISTRY.get(result.engine).deterministic


#: The process-wide result cache consulted by the executor; ``None``
#: until :func:`configure_result_cache` opts the process in.
_RESULT_CACHE: Optional[ResultCache] = None


def configure_result_cache(
    path: Optional[Union[str, Path]] = None,
    memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    max_disk_entries: Optional[int] = None,
) -> ResultCache:
    """Install the process-wide two-tier result cache.

    *path* is the disk-store root (``None`` keeps a memory-only tier).
    The executor starts consulting the cache on every plain analytical
    chain request; call :func:`disable_result_cache` to uninstall.
    """
    global _RESULT_CACHE
    store = (DiskResultStore(path, max_entries=max_disk_entries)
             if path is not None else None)
    _RESULT_CACHE = ResultCache(store, memory_entries=memory_entries)
    return _RESULT_CACHE


def disable_result_cache() -> None:
    """Uninstall the process-wide result cache (entries stay on disk)."""
    global _RESULT_CACHE
    _RESULT_CACHE = None


def get_result_cache() -> Optional[ResultCache]:
    """The installed process-wide result cache, or ``None``."""
    return _RESULT_CACHE
