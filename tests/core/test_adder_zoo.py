"""The adder-family zoo: config grammar, windowed model, DPs, prefixes.

The load-bearing guarantees: (1) every config string round-trips
through ``parse_adder`` exactly; (2) the windowed functional model is
bit-identical to ``gear_add`` on GeAr configs; (3) all five cut DPs
match weighted enumeration bit-for-bit at dyadic probabilities; (4)
full-depth prefix graphs are exact and truncation degrades
monotonically.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adder_zoo import (
    ZOO_FAMILIES,
    WindowedAdderSpec,
    ZooAdder,
    from_gear,
    named_zoo,
    parse_adder,
    prefix_depth,
    prefix_levels,
    truncated_prefix_spec,
    windowed_add,
    windowed_error_moments,
    windowed_error_pmf,
    windowed_error_probability,
    windowed_table,
    windowed_worst_case_error,
    zoo_cost,
)
from repro.core.adders import LOA_GEN, LOA_OR
from repro.core.exceptions import AnalysisError
from repro.core.magnitude import fold_mred
from repro.gear.config import GeArConfig
from repro.gear.functional import gear_add
from repro.simulation import windowed_exhaustive_quality


# ---------------------------------------------------------------- grammar

@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_config_grammar_round_trips(data):
    """parse(render(parse(s))) == parse(s) for every valid config.

    Drawing through ``st.data()`` keeps the width-dependent parameter
    ranges valid per family.
    """
    family = data.draw(st.sampled_from(sorted(ZOO_FAMILIES)))
    n = data.draw(st.integers(2, 16))
    if family == "rca":
        adder = ZooAdder("rca", n)
    elif family in ("loa", "loawa"):
        adder = ZooAdder(family, n, (data.draw(st.integers(1, n - 1)),))
    elif family == "aca1":
        adder = ZooAdder("aca1", n, (data.draw(st.integers(1, n)),))
    elif family == "aca2":
        qs = [q for q in range(2, n + 1, 2) if (n - q) % (q // 2) == 0]
        adder = ZooAdder("aca2", n, (data.draw(st.sampled_from(qs)),))
    elif family == "eta":
        xs = [x for x in range(1, n // 2 + 1) if n % x == 0]
        adder = ZooAdder("eta", n, (data.draw(st.sampled_from(xs)),))
    elif family == "gear":
        r = data.draw(st.integers(1, n - 1))
        ps = [p for p in range(0, n - r + 1) if (n - r - p) % r == 0]
        adder = ZooAdder("gear", n, (r, data.draw(st.sampled_from(ps))))
    elif family == "gda":
        bs = [b for b in range(2, n + 1) if n % b == 0]
        b = data.draw(st.sampled_from(bs))
        adder = ZooAdder("gda", n, (b, data.draw(st.integers(1, n // b))))
    else:
        topo = family.split("-")[1]
        lvl = data.draw(st.integers(1, prefix_depth(topo, n)))
        adder = ZooAdder(family, n, (lvl,))
    rendered = adder.config_string
    reparsed = parse_adder(rendered)
    assert reparsed == adder
    assert reparsed.config_string == rendered


def test_parse_is_case_and_separator_insensitive():
    for spelling in ("ACA_1:8:4", "aca-1:8:4", "Aca 1:8:4", "aca1:8:4"):
        assert parse_adder(spelling).config_string == "aca1:8:4"
    assert parse_adder("AXPPA-KS:8:2").config_string == "axppa-ks:8:2"


def test_invalid_configs_raise_actionable_errors():
    for bad in ("nope:8", "loa:8", "loa:8:0", "loa:8:8", "aca2:8:3",
                "eta:8:3", "eta:8:5", "gda:8:3:1", "axppa-ks:8:9",
                "axppa-ks:8:0", "gear:8:3:3", "loa:one:2", ""):
        with pytest.raises((AnalysisError, Exception)) as exc:
            parse_adder(bad)
        assert str(exc.value)


def test_parsed_adders_hash_and_compare():
    a = parse_adder("gda:8:2:2")
    b = parse_adder("GDA:8:2:2")
    assert a == b and hash(a) == hash(b)
    assert a != parse_adder("gda:8:2:1")


# ------------------------------------------------------ functional model

def test_windowed_add_matches_gear_add_exhaustively():
    n = 8
    for r in range(1, n):
        for p in range(0, n - r + 1):
            if (n - r - p) % r:
                continue
            config = GeArConfig(n, r, p)
            spec = from_gear(config)
            for a in range(0, 1 << n, 7):
                for b in range(0, 1 << n, 5):
                    assert windowed_add(spec, a, b) == gear_add(config, a, b)


def test_loa_cells_match_their_definitions():
    # OR cell: sum = a | b, never generates a carry.
    for row in range(8):
        a, b, cin = row >> 2 & 1, row >> 1 & 1, row & 1
        s, c = LOA_OR.rows[row]
        assert (s, c) == (a | b, 0)
        s, c = LOA_GEN.rows[row]
        assert (s, c) == (a | b, a & b)


def test_chain_families_build_expected_cells():
    from repro.core.truth_table import ACCURATE

    assert parse_adder("rca:4").build() == (ACCURATE,) * 4
    assert parse_adder("loa:4:2").build() == (LOA_OR, LOA_GEN,
                                              ACCURATE, ACCURATE)
    assert parse_adder("loawa:4:2").build() == (LOA_OR, LOA_OR,
                                                ACCURATE, ACCURATE)


# ----------------------------------------------------------------- DPs

def _windowed_members(width):
    return [a for a in named_zoo(width) if a.representation == "windowed"]


@pytest.mark.parametrize("width", [4, 6, 8])
def test_dps_match_enumeration_bit_for_bit(width):
    """The DPs vs the 4^N oracle, zero tolerance at p = 0.5 (the MRED
    bracket within a few ulps)."""
    for adder in _windowed_members(width):
        spec = adder.build()
        oracle = windowed_exhaustive_quality(spec)
        er_ref = sum(p for d, p in oracle.pmf.items() if d != 0)

        assert windowed_error_probability(spec) == er_ref
        assert windowed_error_pmf(spec) == oracle.pmf

        moments = windowed_error_moments(spec)
        mean_ref = sum(d * p for d, p in oracle.pmf.items())
        m2_ref = sum(d * d * p for d, p in oracle.pmf.items())
        assert moments.mean == pytest.approx(mean_ref, abs=1e-9)
        assert moments.second_moment == pytest.approx(m2_ref, rel=1e-12)

        wce = windowed_worst_case_error(spec)
        assert wce.wce == max(abs(d) for d in oracle.pmf)

        lo, hi = fold_mred(windowed_table(spec))
        assert lo * (1 - 1e-14) <= oracle.mred <= hi * (1 + 1e-14)
        assert hi - lo <= 1e-12 * hi


def test_dps_accept_per_bit_probability_vectors():
    spec = parse_adder("aca1:6:3").build()
    pa = [0.1, 0.9, 0.25, 0.5, 0.75, 0.3]
    pb = [0.6, 0.2, 0.8, 0.4, 0.5, 0.9]
    oracle = windowed_exhaustive_quality(spec, pa, pb)
    er_ref = sum(p for d, p in oracle.pmf.items() if d != 0)
    assert windowed_error_probability(spec, pa, pb) == \
        pytest.approx(er_ref, abs=1e-12)
    pmf = windowed_error_pmf(spec, pa, pb)
    assert set(pmf) == set(oracle.pmf)
    for delta, mass in oracle.pmf.items():
        assert pmf[delta] == pytest.approx(mass, abs=1e-12)


@pytest.mark.parametrize("p", [1e-100, 1e-200, 5e-324])
def test_wce_counts_digits_whose_weight_underflows(p):
    """A digit is reachable when its operand values are possible, even
    when its weight ``P(a) P(b)`` underflows to 0.0 -- the chain
    interval DP's rule."""
    for adder in _windowed_members(8):
        spec = adder.build()
        assert windowed_worst_case_error(spec, p, p).wce \
            == windowed_worst_case_error(spec).wce, adder.config_string


def test_exact_spec_never_errs():
    spec = WindowedAdderSpec("exact", (0,) * 6, 0)
    assert spec.is_exact
    assert windowed_error_probability(spec) == 0.0
    assert windowed_error_pmf(spec) == {0: 1.0}
    assert windowed_worst_case_error(spec).wce == 0


# ------------------------------------------------------------- prefixes

def test_prefix_level_shapes_are_the_classic_ones():
    assert [len(l) for l in prefix_levels("ks", 8)] == [7, 6, 4]
    assert [len(l) for l in prefix_levels("bk", 8)] == [4, 2, 1, 1, 3]
    assert [len(l) for l in prefix_levels("sk", 8)] == [4, 4, 4]
    assert [len(l) for l in prefix_levels("lf", 8)] == [4, 2, 2, 3]
    assert prefix_depth("ks", 32) == 5
    assert prefix_depth("bk", 32) == 9


@pytest.mark.parametrize("topology", ["bk", "ks", "sk", "lf"])
@pytest.mark.parametrize("n", [2, 5, 8, 13, 16])
def test_full_depth_prefix_is_exact_and_truncation_monotone(topology, n):
    depth = prefix_depth(topology, n)
    full = truncated_prefix_spec(topology, n, depth)
    assert full.is_exact

    errors = [
        windowed_error_probability(truncated_prefix_spec(topology, n, lvl))
        for lvl in range(1, depth + 1)
    ]
    assert errors[-1] == 0.0
    for shallow, deep in zip(errors, errors[1:]):
        assert deep <= shallow + 1e-15


def test_truncation_out_of_range_raises():
    # levels_used = 0 is legal for the *function* (generate-only carry)
    # but not for the config grammar, which starts at LVL = 1.
    assert not truncated_prefix_spec("ks", 8, 0).is_exact
    with pytest.raises(AnalysisError):
        truncated_prefix_spec("ks", 8, 4)
    with pytest.raises(AnalysisError):
        prefix_levels("unknown", 8)


# ----------------------------------------------------------- cost model

def test_zoo_cost_orders_families_sensibly():
    rca = zoo_cost("rca:8")
    assert zoo_cost("loa:8:4").delay_units < rca.delay_units
    assert zoo_cost("loa:8:4").area_units < rca.area_units
    assert zoo_cost("axppa-ks:8:2").delay_units < rca.delay_units
    # deeper truncation costs more delay and area
    assert zoo_cost("axppa-ks:8:3").delay_units > \
        zoo_cost("axppa-ks:8:1").delay_units
    assert math.isfinite(rca.area_units)


def test_named_zoo_members_are_all_buildable_and_unique():
    for width in (4, 8, 16):
        zoo = named_zoo(width)
        names = [a.config_string for a in zoo]
        assert len(names) == len(set(names))
        assert names[0] == f"rca:{width}"
        for adder in zoo:
            adder.build()
        families = {a.family for a in zoo}
        assert {"rca", "loa", "loawa", "aca1", "aca2", "eta", "gda",
                "axppa-bk", "axppa-ks", "axppa-sk", "axppa-lf"} <= families
