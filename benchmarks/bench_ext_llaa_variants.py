"""Extension bench: named LLAA variants under one exact analysis.

Paper §2.2 adopts GeAr because it "captures all of the prominent
previously proposed LLAAs".  This bench instantiates the named adders
from the literature (ACA-I, ETAII) as GeAr configurations and prints
their exact error/latency table -- the comparison the LLAA papers run
with simulation, here fully analytical.
"""

from __future__ import annotations

import pytest

from repro import engine
from repro.core.adder_zoo import from_gear
from repro.engine import AnalysisRequest
from repro.gear.variants import aca_i, etaii, variant_comparison
from repro.reporting import ascii_table

from conftest import emit

N = 12


def test_ext_llaa_variant_table(benchmark):
    rows = [
        [r["name"], r["config"], r["delay"], r["p_error"]]
        for r in variant_comparison(N)
    ]
    emit(ascii_table(
        ["adder", "GeAr form", "delay", "P(Error)"],
        rows, digits=5,
        title=f"Ext: named LLAA variants at N = {N} (exact analysis)",
    ))
    # ACA-I windows: larger L -> lower error, higher delay.
    aca_rows = [r for r in variant_comparison(N) if r["name"].startswith("ACA")]
    by_l = sorted(aca_rows, key=lambda r: r["l"])
    errors = [r["p_error"] for r in by_l]
    delays = [r["delay"] for r in by_l]
    assert errors == sorted(errors, reverse=True)
    assert delays == sorted(delays)

    benchmark.pedantic(lambda: variant_comparison(N), rounds=3, iterations=1)


def test_ext_variants_cross_checked_exhaustively(benchmark):
    # exact DP == exhaustive count for representative named instances
    # (8-bit words keep the 4^N enumeration cheap)
    for config in (aca_i(8, 4), aca_i(8, 2), etaii(8, 2), etaii(8, 4)):
        request = AnalysisRequest.zoo(from_gear(config))
        oracle = engine.run(request, engine="zoo-exhaustive")
        analytical = engine.run(request)
        assert analytical.engine == "zoo-dp"
        assert oracle.p_error == pytest.approx(analytical.p_error, abs=1e-12)
    emit("Ext: ACA-I/ETAII exact DP == exhaustive enumeration.")

    wide = AnalysisRequest.zoo(from_gear(aca_i(32, 8)))
    benchmark.pedantic(lambda: engine.run(wide), rounds=5, iterations=1)
