"""Property suite for the segment transfer-matrix core.

The exactness contract of :mod:`repro.core.transfer` promises that the
segment-tree evaluation returns the *correctly rounded exact* value --
bit-identical to :func:`repro.core.recursive.analyze_chain` run in its
documented exact mode (``fractions.Fraction`` operands flow through
untouched).  Note the float-mode recursion is deliberately **not** the
bit reference: its per-stage roundings drift from the exact value by an
ulp at some widths, which is precisely what the transfer path removes.

Properties pinned here:

* bit-identity against the Fraction-lifted recursion over random cells,
  widths and probability vectors (including denormal-ish edge values);
* associativity of :func:`~repro.core.transfer.compose` at the *field*
  level -- any bracketing yields the same normalised entries/exponent;
* warm == cold: a :class:`repro.engine.segcache.SegmentCache` serving
  every node from memory returns the same bits as the pure builders;
* the canonical aligned decomposition really is aligned, complete and
  logarithmic;
* the Table 4 trace path (``trace_chain`` / ``keep_trace=True``) agrees
  bit-for-bit with the segment tree when both run exactly.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recursive import analyze_chain, resolve_chain
from repro.core.stages import trace_chain
from repro.core.transfer import (
    SegmentMatrix,
    aligned_blocks,
    analyze_chain_transfer,
    chain_matrix,
    compose,
    evaluate,
    lower_stage,
)
from repro.engine.segcache import SegmentCache

CELL_NAMES = ["AccuFA"] + [f"LPAA {i}" for i in range(1, 8)]

probabilities = st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False)

# Values float subtraction mangles (1.0 - 2**-70 rounds to 1.0) -- the
# integer-space complement must keep these exact.
EDGE_PROBABILITIES = [0.0, 1.0, 2.0 ** -70, 1.0 - 2.0 ** -53, 2.0 ** -52]

edge_probabilities = st.one_of(probabilities,
                               st.sampled_from(EDGE_PROBABILITIES))


@st.composite
def chain_configs(draw, max_width=24):
    width = draw(st.integers(min_value=1, max_value=max_width))
    cells = draw(st.lists(st.sampled_from(CELL_NAMES),
                          min_size=width, max_size=width))
    p_a = draw(st.lists(edge_probabilities, min_size=width, max_size=width))
    p_b = draw(st.lists(edge_probabilities, min_size=width, max_size=width))
    p_cin = draw(edge_probabilities)
    return cells, width, p_a, p_b, p_cin


def exact_success(cells, width, p_a, p_b, p_cin) -> float:
    """The bit reference: the recursion with Fraction-lifted floats."""
    return float(analyze_chain(
        cells, width,
        [Fraction(p) for p in p_a], [Fraction(p) for p in p_b],
        Fraction(p_cin),
    ).p_success)


class TestBitIdentity:
    @given(config=chain_configs())
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_recursion(self, config):
        cells, width, p_a, p_b, p_cin = config
        got = analyze_chain_transfer(cells, width, p_a, p_b, p_cin)
        assert got == exact_success(cells, width, p_a, p_b, p_cin)

    @pytest.mark.parametrize("cell", CELL_NAMES)
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 16, 33, 64])
    def test_uniform_chains_every_cell(self, cell, width):
        got = analyze_chain_transfer(cell, width, 0.3, 0.7, 0.25)
        assert got == exact_success(cell, width, [0.3] * width,
                                    [0.7] * width, 0.25)

    def test_subnormal_scale_probabilities_stay_exact(self):
        # 1.0 - 2**-70 == 1.0 in float arithmetic; the dyadic
        # complement must not take that shortcut.
        p = 2.0 ** -70
        got = analyze_chain_transfer("LPAA 3", 8, p, 1.0 - 2.0 ** -53, p)
        assert got == exact_success("LPAA 3", 8, [p] * 8,
                                    [1.0 - 2.0 ** -53] * 8, p)


class TestComposition:
    @given(config=chain_configs(max_width=12),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_bracketing_gives_identical_fields(self, config, data):
        cells, width, p_a, p_b, p_cin = config
        tables = resolve_chain(cells, width)
        leaves = [lower_stage(t, pa, pb)
                  for t, pa, pb in zip(tables, p_a, p_b)]

        def fold(lo, hi):
            if hi - lo == 1:
                return leaves[lo]
            mid = data.draw(st.integers(min_value=lo + 1, max_value=hi - 1),
                            label=f"split[{lo},{hi})")
            return compose(fold(lo, mid), fold(mid, hi))

        random_tree = fold(0, width)
        canonical = chain_matrix(tables, p_a, p_b)
        # Exact arithmetic + canonical normalisation: every bracketing
        # lands on the same entries and exponent (keys differ -- they
        # address tree *nodes*, not values).
        assert random_tree.entries() == canonical.entries()
        assert random_tree.exp == canonical.exp
        assert random_tree.span == canonical.span == width
        assert evaluate(random_tree, p_cin) == evaluate(canonical, p_cin)

    def test_compose_associative_triple(self):
        tables = resolve_chain("LPAA 5", 3)
        a, b, c = (lower_stage(t, 0.3, 0.6) for t in tables)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.entries() == right.entries()
        assert left.exp == right.exp


class TestCacheEquivalence:
    @given(config=chain_configs(max_width=16))
    @settings(max_examples=25, deadline=None)
    def test_warm_equals_cold(self, config):
        cells, width, p_a, p_b, p_cin = config
        # Cache keys quantise probabilities to 12 decimal digits (the
        # library-wide identity convention): values that are fixed
        # points of that quantisation round-trip bit-identically, so
        # feed the cache its own representatives.
        p_a = [round(p, 12) for p in p_a]
        p_b = [round(p, 12) for p in p_b]
        tables = resolve_chain(cells, width)
        cache = SegmentCache()
        cold = cache.success_probability(tables, p_a, p_b, p_cin)
        warm = cache.success_probability(tables, p_a, p_b, p_cin)
        pure = analyze_chain_transfer(cells, width, p_a, p_b, p_cin)
        assert cold == warm == pure
        stats = cache.stats()["memory"]
        assert stats["hits"] > 0 or width == 1

    def test_prefix_extension_hits_shared_nodes(self):
        # Chains extending a common aligned prefix must re-hit its
        # cached segments -- the whole point of aligned decomposition.
        cache = SegmentCache()
        tables = resolve_chain("LPAA 2", 64)
        cache.chain_root(tables[:32], [0.3] * 32, [0.7] * 32)
        misses_before = cache.stats()["memory"]["misses"]
        cache.chain_root(tables, [0.3] * 64, [0.7] * 64)
        stats = cache.stats()["memory"]
        # The 64-wide chain adds only the right half + the root: with a
        # uniform chain the right half dedups into the prefix's nodes,
        # so only the final 32+32 compose can miss.
        assert stats["misses"] - misses_before <= 1
        assert stats["hits"] > 0


class TestAlignedBlocks:
    @given(n=st.integers(min_value=1, max_value=4096))
    def test_blocks_cover_aligned_and_logarithmic(self, n):
        blocks = list(aligned_blocks(n))
        # Complete, in order, gap-free.
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        for (_, hi), (lo, _) in zip(blocks, blocks[1:]):
            assert hi == lo
        for lo, hi in blocks:
            size = hi - lo
            assert size & (size - 1) == 0, "span must be a power of two"
            assert lo % size == 0, "block must be aligned to its span"
        assert len(blocks) <= max(1, 2 * n.bit_length())

    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError):
            list(aligned_blocks(0))


class TestTraceAgreement:
    @given(config=chain_configs(max_width=10))
    @settings(max_examples=25, deadline=None)
    def test_traced_result_matches_segment_tree_exactly(self, config):
        cells, width, p_a, p_b, p_cin = config
        # Both sides exact: the Fraction-lifted trace (per-stage Table 4
        # records intact) and the segment tree must agree bit-for-bit.
        traced = trace_chain(
            cells, width,
            [Fraction(p) for p in p_a], [Fraction(p) for p in p_b],
            Fraction(p_cin),
        )
        assert len(traced.trace) == width
        assert float(traced.p_success) == analyze_chain_transfer(
            cells, width, p_a, p_b, p_cin)

    def test_table4_trace_still_produced_with_segment_path(self):
        # The float-mode trace keeps its per-stage records regardless of
        # the segment tier (keep_trace forces the stage loop), and its
        # value stays within an ulp-scale tolerance of the exact path.
        traced = trace_chain("LPAA 1", 4, 0.5, 0.5, 0.5)
        assert len(traced.trace) == 4
        exact = analyze_chain_transfer("LPAA 1", 4, 0.5, 0.5, 0.5)
        assert float(traced.p_success) == pytest.approx(exact, abs=1e-12)


class TestSegmentMatrixShape:
    def test_leaf_fields_are_canonical(self):
        table = resolve_chain("LPAA 2", 1)[0]
        leaf = lower_stage(table, 0.5, 0.5)
        assert isinstance(leaf, SegmentMatrix)
        assert leaf.span == 1
        # p = 0.5 has tiny numerators: normalisation must strip the
        # common power of two down to a minimal exponent.
        assert leaf.exp <= 2
        again = lower_stage(table, 0.5, 0.5)
        assert again == leaf  # canonical form => equal values equal fields

    def test_evaluate_zero_mass(self):
        table = resolve_chain("LPAA 2", 1)[0]
        # P(A)=P(B)=1 on LPAA 2 with cin=1 is an always-error corner;
        # whatever the mass, evaluate must return a float in [0, 1].
        seg = lower_stage(table, 1.0, 1.0)
        value = evaluate(seg, 1.0)
        assert 0.0 <= value <= 1.0
