#!/usr/bin/env python3
"""Regenerate the paper's tables into a single REPORT.md.

The benchmark suite (pytest benchmarks/ --benchmark-only) is the full
reproduction with assertions and timing; this script is the quick,
human-facing version: every table the library can produce analytically,
written to one markdown file in a few seconds.

Usage:  python scripts/make_report.py [output.md]
"""

from __future__ import annotations

import sys
import time

from repro import __version__, engine
from repro.baselines.operation_counter import table3_row
from repro.core.adders import CELL_CHARACTERISTICS, PAPER_LPAAS
from repro.core.matrices import derive_matrices
from repro.core.recursive import analyze_chain
from repro.core.stages import format_trace_table, trace_chain
from repro.core.symbolic import symbolic_error_probability
from repro.core.truth_table import ACCURATE
from repro.gear.variants import variant_comparison


def _md_table(headers, rows, digits=5):
    def fmt(value):
        if isinstance(value, float):
            return f"{value:.{digits}f}".rstrip("0").rstrip(".") or "0"
        return str(value)

    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
    return "\n".join(lines)


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "REPORT.md"
    start = time.perf_counter()
    sections = []

    sections.append(
        f"# Reproduction report (sealpaa-py {__version__})\n\n"
        "All values below are produced analytically by the library; see "
        "`pytest benchmarks/ --benchmark-only` for the asserted, timed "
        "version including the simulation columns.\n"
    )

    # Table 1
    rows = []
    for idx in range(8):
        a, b, cin = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        row = [f"{a} {b} {cin}", "{} {}".format(*ACCURATE.rows[idx])]
        for cell in PAPER_LPAAS:
            s, c = cell.rows[idx]
            mark = "*" if (s, c) != ACCURATE.rows[idx] else ""
            row.append(f"{s} {c}{mark}")
        rows.append(row)
    sections.append("## Table 1 — truth tables (* = error case)\n\n" + _md_table(
        ["A B Cin", "AccuFA", *[c.name for c in PAPER_LPAAS]], rows))

    # Table 2
    rows = [
        [name, char.error_cases,
         "-" if char.power_nw is None else char.power_nw,
         "-" if char.area_ge is None else char.area_ge]
        for name, char in CELL_CHARACTERISTICS.items()
    ]
    sections.append("\n## Table 2 — published cell characteristics\n\n" +
                    _md_table(["Cell", "Error cases", "Power nW", "Area GE"],
                              rows, digits=2))

    # Table 3
    rows = [[k, *table3_row(k).values()] for k in (4, 8, 12, 16, 20, 24, 28, 32)]
    sections.append("\n## Table 3 — inclusion-exclusion cost (corrected "
                    "closed forms)\n\n" + _md_table(
                        ["Stages", "Terms", "Mults", "Adds", "Memory"], rows))

    # Table 4
    trace = trace_chain("LPAA 1", width=4, p_a=[0.9, 0.5, 0.4, 0.8],
                        p_b=[0.8, 0.7, 0.6, 0.9], p_cin=0.5)
    sections.append("\n## Table 4 — worked example\n\n```\n"
                    + format_trace_table(trace) + "\n```")

    # Table 5
    rows = [
        [cell.name,
         str(list(derive_matrices(cell).m)),
         str(list(derive_matrices(cell).k)),
         str(list(derive_matrices(cell).l))]
        for cell in PAPER_LPAAS
    ]
    sections.append("\n## Table 5 — M/K/L matrices\n\n" +
                    _md_table(["Cell", "M", "K", "L"], rows))

    # Table 7 (analytical)
    rows = []
    for width in (2, 4, 6, 8, 10, 12):
        rows.append([width, *[
            float(analyze_chain(cell, width, 0.1, 0.1, 0.1).p_error)
            for cell in PAPER_LPAAS
        ]])
    sections.append("\n## Table 7 — analytical P(E) at p = 0.1\n\n" +
                    _md_table(["N", *[c.name for c in PAPER_LPAAS]], rows))

    # Fig. 5 series
    for label, p in (("(a) p = 0.5", 0.5), ("(b) p = 0.1", 0.1),
                     ("(c) p = 0.9", 0.9)):
        widths = [1, 2, 4, 8, 12, 16]
        rows = []
        for cell in PAPER_LPAAS:
            curve = engine.error_curves(cell, 16, p, p_cin=p)
            rows.append([cell.name, *[float(curve[n - 1]) for n in widths]])
        sections.append(f"\n## Fig. 5{label} — P(Error) vs width\n\n" +
                        _md_table(["Cell", *[f"N={n}" for n in widths]],
                                  rows, digits=4))

    # Closed forms
    rows = [
        [cell.name, f"`{symbolic_error_probability(cell, 2).to_string()}`"]
        for cell in PAPER_LPAAS
    ]
    sections.append("\n## Generic error equations (N = 2, uniform p)\n\n" +
                    _md_table(["Cell", "P(Error)(p)"], rows))

    # LLAA variants
    rows = [
        [r["name"], r["config"], r["delay"], r["p_error"]]
        for r in variant_comparison(12)
    ]
    sections.append("\n## Named LLAA variants at N = 12 (exact)\n\n" +
                    _md_table(["Adder", "GeAr form", "Delay", "P(Error)"],
                              rows))

    elapsed = time.perf_counter() - start
    sections.append(f"\n---\ngenerated in {elapsed:.2f} s\n")

    with open(out_path, "w") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {out_path} in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
