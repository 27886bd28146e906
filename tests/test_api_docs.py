"""The generated API reference must match the live code (no drift)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "make_api_docs.py"
REFERENCE = REPO_ROOT / "docs" / "api_reference.md"


def _load_generator():
    spec = importlib.util.spec_from_file_location("make_api_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_reference_is_current():
    generator = _load_generator()
    assert REFERENCE.exists(), (
        "docs/api_reference.md missing; run "
        "PYTHONPATH=src python scripts/make_api_docs.py"
    )
    assert REFERENCE.read_text() == generator.render(), (
        "docs/api_reference.md is stale; regenerate with "
        "PYTHONPATH=src python scripts/make_api_docs.py"
    )


def test_check_mode_passes_on_current_tree():
    generator = _load_generator()
    assert generator.main(["--check"]) == 0


def test_signatures_are_annotation_free():
    # Annotation reprs differ across interpreter versions; the page must
    # stay byte-identical on every CI Python.
    for line in REFERENCE.read_text().splitlines():
        if line.startswith("### `") or line.startswith("- `."):
            assert "Optional[" not in line, line
            assert "->" not in line, line
            assert ": " not in line.split("`")[1], line
