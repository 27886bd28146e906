"""Tests for named LLAA variants expressed as GeAr configurations."""

import pytest

from repro import engine
from repro.core.adder_zoo import from_gear
from repro.core.exceptions import GeArConfigError
from repro.engine import AnalysisRequest
from repro.gear.config import GeArConfig
from repro.gear.functional import gear_add
from repro.gear.variants import (
    aca_i,
    accurate_rca,
    etaii,
    named_variants,
    variant_comparison,
)


def zoo_p_error(config):
    return engine.run(AnalysisRequest.zoo(from_gear(config))).p_error


class TestAcaI:
    def test_mapping(self):
        config = aca_i(16, 4)
        assert (config.n, config.r, config.p) == (16, 1, 3)
        assert config.l == 4

    def test_window_equals_width_is_exact(self):
        config = aca_i(8, 8)
        assert config.is_exact
        for a in range(0, 256, 37):
            for b in range(0, 256, 41):
                assert gear_add(config, a, b) == a + b

    def test_bigger_windows_err_less(self):
        errors = [zoo_p_error(aca_i(12, w)) for w in (2, 4, 6)]
        assert errors == sorted(errors, reverse=True)

    def test_validation(self):
        with pytest.raises(GeArConfigError):
            aca_i(8, 0)
        with pytest.raises(GeArConfigError):
            aca_i(8, 9)


class TestEtaii:
    def test_mapping(self):
        config = etaii(16, 4)
        assert (config.n, config.r, config.p) == (16, 4, 4)
        assert config.num_subadders == 3

    def test_block_must_tile(self):
        with pytest.raises(GeArConfigError, match="tile"):
            etaii(16, 5)
        with pytest.raises(GeArConfigError, match="two"):
            etaii(8, 8)

    def test_larger_blocks_err_less(self):
        errors = [zoo_p_error(etaii(16, b)) for b in (2, 4, 8)]
        assert errors == sorted(errors, reverse=True)


class TestComparison:
    def test_rca_is_exact(self):
        assert zoo_p_error(accurate_rca(12)) == pytest.approx(0.0)

    def test_named_variants_cover_families(self):
        variants = named_variants(16)
        assert "RCA(16)" in variants
        assert "ACA-I(16,4)" in variants
        assert "ETAII(16,4)" in variants
        assert all(isinstance(c, GeArConfig) for c in variants.values())

    def test_comparison_rows_sorted_and_consistent(self):
        rows = variant_comparison(12)
        errors = [r["p_error"] for r in rows]
        assert errors == sorted(errors)
        assert errors[0] == 0.0  # the RCA leads
        # every approximate variant is faster than the exact RCA
        rca_delay = next(r for r in rows if r["name"] == "RCA(12)")["delay"]
        for row in rows:
            if row["p_error"] > 0:
                assert row["delay"] < rca_delay

    def test_etaii_matches_equivalent_gear_analysis(self):
        # the named wrapper must be bit-identical to the raw config
        config = etaii(12, 3)
        raw = GeArConfig(12, 3, 3)
        for a in range(0, 4096, 131):
            for b in range(0, 4096, 173):
                assert gear_add(config, a, b) == gear_add(raw, a, b)
