"""Segment prefix cache: >= 10x on a million-config shared-prefix sweep.

The tentpole claim of the transfer-matrix refactor: once a chain's
aligned segment tree is cached, sweeping configurations that share a
prefix costs O(log N) composes per new suffix plus one exact evaluation
per carry-in -- not an O(N) re-recursion per config.  This bench pins
that claim on a prefix-sharing exact sweep:

* **Sweep shape** -- a 64-bit chain whose first 63 stages are fixed
  (the shared prefix) while the last stage steps through ``VARIANTS``
  distinct probability pairs, each evaluated at ``CARRY_INS`` carry-in
  probabilities: ``VARIANTS * CARRY_INS`` = one million configs.
* **Baseline** -- the serial stage-by-stage recursion
  (:func:`repro.core.recursive.analyze_chain`), timed on a
  ``BASELINE_SAMPLE``-config sample and extrapolated linearly (the
  recursion has no cross-config state, so per-config cost is flat).
* **Bit-identity** -- before any timing, the segment path must return
  exactly the same bits as the Fraction-lifted recursion for *every*
  cell in the registry zoo at N in {4, 8, 16, 32, 64}.  The speedup is
  only interesting because the fast path is not an approximation.

The measured trajectory lands in ``BENCH_prefix.json``
(``sealpaa-bench-v1``; CI compares it informationally against the
committed baseline).
"""

from __future__ import annotations

import time
from fractions import Fraction

from repro.core.recursive import analyze_chain, resolve_chain
from repro.core.transfer import evaluate
from repro.engine.segcache import SegmentCache
from repro.reporting import ascii_table

from bench_trajectory import metric, write_trajectory
from conftest import bench_output_path, emit

CELL_NAMES = ["AccuFA"] + [f"LPAA {i}" for i in range(1, 8)]
IDENTITY_WIDTHS = [4, 8, 16, 32, 64]

CELL = "LPAA 2"
WIDTH = 64
VARIANTS = 1_000
CARRY_INS = 1_000
BASELINE_SAMPLE = 2_000
MIN_SPEEDUP = 10.0


def _stage_probs(width: int, seed: int = 0):
    """Distinct per-stage probabilities, pre-quantised to the cache's
    12-digit key convention so keys and values coincide exactly."""
    p_a = [round(((seed * 37 + i) % 1009) / 1009.0, 12)
           for i in range(width)]
    p_b = [round(((seed * 53 + 7 * i + 1) % 1009) / 1009.0, 12)
           for i in range(width)]
    return p_a, p_b


def _exact_reference(cell, width, p_a, p_b, p_cin) -> float:
    """The bit reference: the recursion with Fraction-lifted floats."""
    return float(analyze_chain(
        cell, width,
        [Fraction(p) for p in p_a], [Fraction(p) for p in p_b],
        Fraction(p_cin),
    ).p_success)


def test_bit_identity_across_the_cell_zoo():
    """Every registry cell, five widths: segment tree == exact recursion."""
    cache = SegmentCache()
    checked = 0
    for cell in CELL_NAMES:
        for width in IDENTITY_WIDTHS:
            p_a, p_b = _stage_probs(width, seed=width)
            tables = resolve_chain(cell, width)
            got = cache.success_probability(tables, p_a, p_b, 0.25)
            want = _exact_reference(cell, width, p_a, p_b, 0.25)
            assert got == want, (
                f"{cell} N={width}: segment tree {got!r} != exact {want!r}"
            )
            checked += 1
    emit(f"bit-identity: {checked} cell/width configs, "
         f"all equal to the Fraction-lifted recursion")


def test_million_config_shared_prefix_sweep(benchmark):
    """1M shared-prefix configs through the segment tier, >= 10x."""
    tables = resolve_chain(CELL, WIDTH)
    p_a, p_b = _stage_probs(WIDTH)
    suffix_values = [round(k / VARIANTS, 12) for k in range(VARIANTS)]
    carry_ins = [k / CARRY_INS for k in range(CARRY_INS)]

    # Baseline: the serial recursion on a sample, extrapolated.  One
    # config is independent of the next, so the scaling is exactly
    # linear; sampling keeps the bench's wall clock honest.
    sampled = 0
    start = time.perf_counter()
    while sampled < BASELINE_SAMPLE:
        variant = list(p_a)
        variant[-1] = suffix_values[sampled % VARIANTS]
        analyze_chain(CELL, WIDTH, variant, p_b,
                      carry_ins[sampled % CARRY_INS])
        sampled += 1
    baseline_sample_s = time.perf_counter() - start
    total_configs = VARIANTS * CARRY_INS
    baseline_est_s = baseline_sample_s * (total_configs / BASELINE_SAMPLE)

    # The segment path: per variant one O(log N) root rebuild over the
    # cached prefix, then one exact evaluation per carry-in.
    cache = SegmentCache()
    start = time.perf_counter()
    checksum = 0.0
    for value in suffix_values:
        variant = list(p_a)
        variant[-1] = value
        root = cache.chain_root(tables, variant, p_b)
        for p_cin in carry_ins:
            checksum += evaluate(root, p_cin)
    segment_s = time.perf_counter() - start
    assert 0.0 < checksum < total_configs  # probabilities, not garbage

    stats = cache.stats()["memory"]
    hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
    speedup = baseline_est_s / segment_s

    # Spot-check the sweep's actual values against the exact recursion
    # (the zoo test covers breadth; this covers this sweep's operands).
    spot = list(p_a)
    spot[-1] = suffix_values[VARIANTS // 2]
    spot_root = cache.chain_root(tables, spot, p_b)
    assert evaluate(spot_root, carry_ins[3]) == _exact_reference(
        CELL, WIDTH, spot, p_b, carry_ins[3])

    emit(ascii_table(
        ["path", "seconds (1M configs)", "speedup"],
        [["serial recursion (extrapolated "
          f"from {BASELINE_SAMPLE} configs)", f"{baseline_est_s:.1f}",
          "1.0x"],
         ["segment tree, prefix cached", f"{segment_s:.1f}",
          f"{speedup:.1f}x"]],
        title=f"{VARIANTS} suffix variants x {CARRY_INS} carry-ins, "
              f"{WIDTH}-bit {CELL}",
    ))
    emit(f"segment cache: {stats['hits']} hits / {stats['misses']} misses "
         f"(hit rate {hit_rate:.4f}), {stats['size']} resident segments")

    write_trajectory(bench_output_path("BENCH_prefix.json"),
                     "prefix_cache", [
        metric("baseline_recursion_est_s", baseline_est_s, unit="s",
               higher_is_better=False),
        metric("segment_sweep_s", segment_s, unit="s",
               higher_is_better=False),
        metric("prefix_speedup_x", speedup, unit="x"),
        metric("sweep_configs_per_s", total_configs / segment_s,
               unit="configs/s"),
        metric("segment_hit_rate", hit_rate, unit=""),
    ])

    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x over the serial recursion, "
        f"got {speedup:.1f}x"
    )

    # pytest-benchmark timer: one warm variant (root rebuild + 1k evals).
    def warm_variant():
        root = cache.chain_root(tables, spot, p_b)
        return sum(evaluate(root, p) for p in carry_ins)

    benchmark(warm_variant)
