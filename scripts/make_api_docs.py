#!/usr/bin/env python
"""Generate ``docs/api_reference.md`` from the live engine-first API.

The reference is *derived*, never hand-edited: every entry is read off
the imported modules (signature via :mod:`inspect`, summary from the
first docstring line), so the document cannot drift from the code
silently.  CI runs ``make_api_docs.py --check``, which regenerates the
page in memory and fails when the committed file differs.

Annotations are stripped from the rendered signatures: their ``repr``
differs across Python versions (``Optional[int]`` vs ``int | None``),
and the drift check must produce byte-identical output on every
interpreter in the CI matrix.

Usage:
    PYTHONPATH=src python scripts/make_api_docs.py          # rewrite
    PYTHONPATH=src python scripts/make_api_docs.py --check  # CI drift gate
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "docs" / "api_reference.md"

#: The engine-first surface, in reading order.  Internal helpers
#: (leading underscore) are excluded automatically.
MODULES = [
    ("repro.engine", "Unified analysis/simulation entry points"),
    ("repro.engine.diskcache", "Persistent two-tier result cache"),
    ("repro.engine.segcache", "Library memory-LRU of segment transfer matrices"),
    ("repro.core.transfer", "Exact segment transfer matrices (O(log N) chains)"),
    ("repro.engine.registry", "Engine capability registry"),
    ("repro.engine.distribution", "Error-magnitude engines (MED/MRED/WCE/PMF)"),
    ("repro.engine.zoo", "Windowed-adder engines (the zoo ladder)"),
    ("repro.core.adder_zoo", "The adder-family zoo: configs, cut DP, prefix graphs"),
    ("repro.core.magnitude", "Error-magnitude DPs and moments"),
    ("repro.core.value_distribution", "Output value laws and TVD"),
    ("repro.serve", "Async batching HTTP/JSON analysis service"),
    ("repro.serve.supervisor", "Multi-worker supervisor with restarts"),
    ("repro.serve.client", "Retrying deadline-aware service client"),
    ("repro.serve.admission", "Per-client token-bucket admission"),
    ("repro.runtime.breaker", "Circuit breaker around engine dispatch"),
    ("repro.runtime.budget", "Run budgets and cooperative cancellation"),
    ("repro.runtime.router", "Engine decisions and routing telemetry"),
    ("repro.obs", "Metrics, tracing, logging, provenance"),
    ("repro.explore.design_space", "Design-space sweeps (paper Fig. 5)"),
    ("repro.explore.hybrid_search", "Optimal hybrid-chain search (paper §5)"),
    ("repro.explore.zoo_space", "Quality/cost Pareto sweeps over the adder zoo"),
]

HEADER = """\
# API reference

Generated by `scripts/make_api_docs.py` from the live modules -- do not
edit by hand.  Regenerate with:

```bash
PYTHONPATH=src python scripts/make_api_docs.py
```

CI regenerates this page and fails on any difference, so what you read
here always matches the code.  The listing covers the engine-first
surface (see `docs/api_tour.md` for the narrative walkthrough).
"""


def _first_doc_line(obj: object) -> str:
    doc = inspect.getdoc(obj) or ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return ""


def _plain_signature(obj: object) -> Optional[str]:
    """``inspect.signature`` with annotations stripped (version-stable)."""
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return None
    parameters = [
        p.replace(annotation=inspect.Parameter.empty)
        for p in signature.parameters.values()
    ]
    plain = signature.replace(
        parameters=parameters, return_annotation=inspect.Signature.empty
    )
    return str(plain)


def _is_public_member(module, name: str, obj: object) -> bool:
    if name.startswith("_"):
        return False
    owner = getattr(obj, "__module__", None)
    exported = getattr(module, "__all__", None)
    if exported is not None:
        return name in exported
    return owner == module.__name__


def _member_entries(module) -> List[str]:
    lines: List[str] = []
    members = [
        (name, obj) for name, obj in vars(module).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and _is_public_member(module, name, obj)
    ]
    for name, obj in sorted(members, key=lambda item: item[0]):
        kind = "class" if inspect.isclass(obj) else "function"
        signature = _plain_signature(obj) or "(...)"
        summary = _first_doc_line(obj)
        lines.append(f"### `{name}{signature}`")
        lines.append("")
        lines.append(f"*{kind}* -- {summary}" if summary else f"*{kind}*")
        if inspect.isclass(obj):
            methods = [
                (m_name, m_obj)
                for m_name, m_obj in vars(obj).items()
                if not m_name.startswith("_")
                and (inspect.isfunction(m_obj)
                     or isinstance(m_obj, (classmethod, staticmethod)))
            ]
            method_lines = []
            for m_name, m_obj in sorted(methods, key=lambda item: item[0]):
                target = (m_obj.__func__
                          if isinstance(m_obj, (classmethod, staticmethod))
                          else m_obj)
                m_sig = _plain_signature(target) or "(...)"
                m_doc = _first_doc_line(target)
                suffix = f" -- {m_doc}" if m_doc else ""
                method_lines.append(f"- `.{m_name}{m_sig}`{suffix}")
            if method_lines:
                lines.append("")
                lines.extend(method_lines)
        lines.append("")
    return lines


def render() -> str:
    sections: List[str] = [HEADER]
    for module_name, tagline in MODULES:
        module = importlib.import_module(module_name)
        sections.append(f"## `{module_name}`")
        sections.append("")
        sections.append(f"{tagline}.")
        sections.append("")
        entries = _member_entries(module)
        if entries:
            sections.extend(entries)
        else:
            sections.append("(no public functions or classes)")
            sections.append("")
    return "\n".join(sections).rstrip() + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) if docs/api_reference.md is out of date "
             "instead of rewriting it",
    )
    args = parser.parse_args(argv)
    fresh = render()
    if args.check:
        current = OUTPUT.read_text() if OUTPUT.exists() else ""
        if current != fresh:
            sys.stderr.write(
                "docs/api_reference.md is out of date; regenerate with\n"
                "  PYTHONPATH=src python scripts/make_api_docs.py\n"
            )
            return 1
        print(f"{OUTPUT.relative_to(REPO_ROOT)} is up to date")
        return 0
    OUTPUT.write_text(fresh)
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)} ({len(fresh)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
