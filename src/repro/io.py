"""Serialisation: cell libraries, result documents and exports.

JSON is the interchange format for user-defined cells (so custom adders
can be analysed from the CLI without writing Python) and for exporting
sweep/exploration results to downstream tooling.

Cell-library file format::

    {
      "format": "sealpaa-cells-v1",
      "cells": [
        {"name": "MyAdder", "rows": [[0,0], [1,0], ... 8 rows ...]},
        ...
      ]
    }

Expensive results (Monte-Carlo estimates, exhaustive enumerations,
hybrid-search outcomes) round-trip through ``sealpaa-result-v1``
documents via :func:`save_result` / :func:`load_result`, carrying their
:class:`repro.obs.RunManifest` so a saved number stays traceable to the
seed, cell chain, package version and git commit that produced it.
Tabular exports get the same provenance as a ``<path>.manifest.json``
sidecar (the main CSV/JSON stays format-stable for downstream parsers).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Sequence, Union

from .core.adders import CellRegistry, registry
from .core.exceptions import TruthTableError
from .core.truth_table import FullAdderTruthTable
from .explore.design_space import DesignPoint
from .obs.provenance import RunManifest
from .reporting import records_to_csv, records_to_json

CELL_FORMAT = "sealpaa-cells-v1"
RESULT_FORMAT = "sealpaa-result-v1"

#: Bounded retry policy for :func:`atomic_write_text` (transient
#: ``OSError`` -- NFS hiccups, AV scanners holding the file, chaos shim).
ATOMIC_WRITE_RETRIES = 3
ATOMIC_WRITE_RETRY_WAIT_S = 0.05


def atomic_write_text(
    path: Union[str, Path],
    text: str,
    retries: int = ATOMIC_WRITE_RETRIES,
    retry_wait_s: float = ATOMIC_WRITE_RETRY_WAIT_S,
) -> Path:
    """Crash-safe text write: temp file in the target directory + rename.

    The destination either keeps its previous content or holds the
    complete new content -- a crash (or an injected fault) mid-write can
    never leave a truncated result/checkpoint on disk, because the data
    is first written and flushed to a temporary file in the *same*
    directory and then committed with the atomic ``os.replace``.

    Transient ``OSError`` during write or commit is retried up to
    *retries* extra times with a short pause; the temp file is always
    cleaned up on failure.  A missing target directory raises
    ``FileNotFoundError`` at once (retrying cannot make it appear).
    Returns the destination path.
    """
    path = Path(path)
    last_error: Optional[OSError] = None
    for attempt in range(retries + 1):
        tmp_name = None
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent) or ".",
                prefix=f".{path.name}.",
                suffix=".tmp",
            )
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            # Chaos hook: lets the fault-injection suite fail the commit
            # without monkey-patching os internals (lazy import -- the
            # runtime package depends on this module, not vice versa).
            from .runtime.chaos import io_fault_check

            io_fault_check(str(path))
            os.replace(tmp_name, path)
            return path
        except OSError as exc:
            last_error = exc
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            elif isinstance(exc, FileNotFoundError):
                # No temp file because the directory is missing: not
                # transient, so the caller decides whether to make it.
                raise
            if attempt < retries:
                time.sleep(retry_wait_s)
    raise OSError(
        f"could not write {path} after {retries + 1} attempts: {last_error}"
    ) from last_error


def cells_to_json(cells: Iterable[FullAdderTruthTable]) -> str:
    """Serialise cells as a library document."""
    return json.dumps(
        {
            "format": CELL_FORMAT,
            "cells": [cell.as_dict() for cell in cells],
        },
        indent=2,
    )


def cells_from_json(text: str) -> List[FullAdderTruthTable]:
    """Parse a cell-library document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TruthTableError(f"invalid JSON cell library: {exc}") from exc
    if not isinstance(data, Mapping) or data.get("format") != CELL_FORMAT:
        raise TruthTableError(
            f"expected a {CELL_FORMAT!r} document, got "
            f"{data.get('format') if isinstance(data, Mapping) else type(data).__name__!r}"
        )
    cells_field = data.get("cells")
    if not isinstance(cells_field, list) or not cells_field:
        raise TruthTableError("cell library contains no cells")
    return [FullAdderTruthTable.from_dict(entry) for entry in cells_field]


def save_cell_library(
    cells: Iterable[FullAdderTruthTable],
    path: Union[str, Path],
) -> None:
    """Write a cell library to *path* (atomically)."""
    atomic_write_text(path, cells_to_json(cells))


def load_cell_library(
    path: Union[str, Path],
    target: CellRegistry = registry,
    register: bool = True,
) -> List[FullAdderTruthTable]:
    """Read a cell library; optionally register every cell for lookup."""
    cells = cells_from_json(Path(path).read_text())
    if register:
        for cell in cells:
            target.register(cell, overwrite=True)
    return cells


def export_design_points(
    points: Sequence[DesignPoint],
    path: Union[str, Path],
    fmt: str = "csv",
    manifest: Optional[RunManifest] = None,
) -> None:
    """Write design points as CSV or JSON (by *fmt* or file suffix).

    With a *manifest*, provenance lands in a ``<path>.manifest.json``
    sidecar; the main file keeps its flat, parser-friendly shape.
    """
    records = [point.as_dict() for point in points]
    fmt = (fmt or Path(path).suffix.lstrip(".")).lower()
    if fmt == "csv":
        atomic_write_text(path, records_to_csv(records))
    elif fmt == "json":
        atomic_write_text(path, records_to_json(records))
    else:
        raise ValueError(f"unknown export format {fmt!r} (csv or json)")
    if manifest is not None:
        write_manifest_sidecar(path, manifest)


def manifest_sidecar_path(path: Union[str, Path]) -> Path:
    """``<path>.manifest.json`` companion of an exported artifact."""
    path = Path(path)
    return path.with_name(path.name + ".manifest.json")


def write_manifest_sidecar(
    path: Union[str, Path], manifest: RunManifest
) -> Path:
    """Write the provenance sidecar for the artifact at *path*."""
    sidecar = manifest_sidecar_path(path)
    atomic_write_text(sidecar, json.dumps(manifest.as_dict(), indent=2) + "\n")
    return sidecar


def load_manifest_sidecar(path: Union[str, Path]) -> RunManifest:
    """Read the provenance sidecar of the artifact at *path*."""
    return RunManifest.from_dict(
        json.loads(manifest_sidecar_path(path).read_text())
    )


# -- result documents ----------------------------------------------------------

def result_to_dict(result: object) -> Mapping[str, object]:
    """Serialise a Monte-Carlo / exhaustive / hybrid-search result.

    The ``type`` tag drives :func:`result_from_dict` dispatch; the
    attached manifest (if any) is embedded under ``manifest``.
    """
    from .explore.hybrid_search import HybridSearchResult
    from .simulation.exhaustive import ExhaustiveResult
    from .simulation.montecarlo import MonteCarloResult

    manifest = getattr(result, "manifest", None)
    doc: dict = {"format": RESULT_FORMAT}
    if isinstance(result, MonteCarloResult):
        doc.update(
            type="montecarlo",
            p_error=result.p_error,
            samples=result.samples,
            errors=result.errors,
            seed=result.seed,
        )
        if result.truncated:
            doc.update(
                truncated=True,
                stop_reason=result.stop_reason,
                requested_samples=result.requested_samples,
            )
    elif isinstance(result, ExhaustiveResult):
        doc.update(
            type="exhaustive",
            p_error=result.p_error,
            width=result.width,
            cases=result.cases,
        )
        if result.truncated:
            doc.update(
                truncated=True,
                stop_reason=result.stop_reason,
                total_cases=result.total_cases,
            )
    elif isinstance(result, HybridSearchResult):
        doc.update(
            type="hybrid-search",
            chain_spec=result.chain.spec(),
            p_error=result.p_error,
            objective=result.objective,
            exact=result.exact,
            power_nw=result.power_nw,
        )
        if result.truncated:
            doc.update(truncated=True, stop_reason=result.stop_reason)
    else:
        raise TypeError(
            f"cannot serialise result of type {type(result).__name__}"
        )
    if manifest is not None:
        doc["manifest"] = manifest.as_dict()
    return doc


def result_from_dict(data: Mapping[str, object]) -> object:
    """Rebuild a result dataclass from :func:`result_to_dict` output.

    Hybrid-search chains are resolved by cell *name* through the active
    registry, so custom cells must be loaded (see
    :func:`load_cell_library`) before their results.
    """
    from .core.hybrid import HybridChain
    from .explore.hybrid_search import HybridSearchResult
    from .simulation.exhaustive import ExhaustiveResult
    from .simulation.montecarlo import MonteCarloResult

    if data.get("format") != RESULT_FORMAT:
        raise ValueError(
            f"expected a {RESULT_FORMAT!r} document, got "
            f"{data.get('format')!r}"
        )
    manifest_doc = data.get("manifest")
    manifest = (
        RunManifest.from_dict(manifest_doc)  # type: ignore[arg-type]
        if manifest_doc is not None
        else None
    )
    kind = data.get("type")
    truncated = bool(data.get("truncated", False))
    stop_reason = data.get("stop_reason")
    if kind == "montecarlo":
        requested = data.get("requested_samples")
        return MonteCarloResult(
            p_error=float(data["p_error"]),  # type: ignore[arg-type]
            samples=int(data["samples"]),  # type: ignore[arg-type]
            errors=int(data["errors"]),  # type: ignore[arg-type]
            seed=data.get("seed"),  # type: ignore[arg-type]
            manifest=manifest,
            truncated=truncated,
            stop_reason=stop_reason,  # type: ignore[arg-type]
            requested_samples=(
                int(requested) if requested is not None else None  # type: ignore[arg-type]
            ),
        )
    if kind == "exhaustive":
        total = data.get("total_cases")
        return ExhaustiveResult(
            p_error=float(data["p_error"]),  # type: ignore[arg-type]
            width=int(data["width"]),  # type: ignore[arg-type]
            cases=int(data["cases"]),  # type: ignore[arg-type]
            manifest=manifest,
            truncated=truncated,
            stop_reason=stop_reason,  # type: ignore[arg-type]
            total_cases=int(total) if total is not None else None,  # type: ignore[arg-type]
        )
    if kind == "hybrid-search":
        power = data.get("power_nw")
        return HybridSearchResult(
            chain=HybridChain.from_spec(str(data["chain_spec"])),
            p_error=float(data["p_error"]),  # type: ignore[arg-type]
            objective=float(data["objective"]),  # type: ignore[arg-type]
            exact=bool(data["exact"]),
            power_nw=float(power) if power is not None else None,
            manifest=manifest,
            truncated=truncated,
            stop_reason=stop_reason,  # type: ignore[arg-type]
        )
    raise ValueError(f"unknown result type {kind!r}")


def save_result(result: object, path: Union[str, Path]) -> None:
    """Write a result (with its manifest) as a JSON document (atomically)."""
    atomic_write_text(
        path, json.dumps(result_to_dict(result), indent=2) + "\n"
    )


def load_result(path: Union[str, Path]) -> object:
    """Read a result document written by :func:`save_result`."""
    return result_from_dict(json.loads(Path(path).read_text()))
