"""GeAr error analysis: the zoo DP vs enumeration, IE and simulation.

GeAr questions are zoo requests (``AnalysisRequest.zoo(from_gear(cfg))``)
answered by ``zoo-dp``; :mod:`repro.gear.analysis` keeps the
per-sub-adder marginals and the inclusion-exclusion baseline.
"""

import numpy as np
import pytest

from repro import engine
from repro.core.adder_zoo import from_gear
from repro.core.exceptions import AnalysisError
from repro.engine import AnalysisRequest
from repro.gear.analysis import (
    gear_inclusion_exclusion,
    gear_subadder_error_probabilities,
)
from repro.gear.config import GeArConfig
from repro.gear.functional import gear_add_array


def _exhaustive_weighted(config, p_a, p_b):
    """Brute-force weighted error probability over all operand pairs."""
    n = config.n
    values = np.arange(1 << n, dtype=np.int64)
    a, b = np.meshgrid(values, values, indexing="ij")
    a, b = a.ravel(), b.ravel()
    wrong = gear_add_array(config, a, b) != (a + b)
    weights = np.ones(a.size)
    for i in range(n):
        pa = p_a[i] if isinstance(p_a, list) else p_a
        pb = p_b[i] if isinstance(p_b, list) else p_b
        weights *= np.where((a >> i) & 1 == 1, pa, 1 - pa)
        weights *= np.where((b >> i) & 1 == 1, pb, 1 - pb)
    return float(weights[wrong].sum())


def _run(config, p_a=0.5, p_b=0.5, **options):
    return engine.run(AnalysisRequest.zoo(from_gear(config), p_a, p_b),
                      **options)


CONFIGS = [
    GeArConfig(4, 2, 0),
    GeArConfig(6, 2, 2),
    GeArConfig(8, 2, 2),
    GeArConfig(8, 1, 3),   # heavy overlap: P > R
    GeArConfig(8, 4, 0),
    GeArConfig(6, 1, 1),
]

#: Every valid GeAr configuration up to eight bits.
SMALL_CONFIGS = [config for n in range(1, 9)
                 for config in GeArConfig.valid_configs(n)]


class TestExactDP:
    """Cross-validation: ``zoo-dp`` == weighted enumeration == IE."""

    @staticmethod
    def _cross_validate(config, p_a, p_b):
        result = _run(config, p_a, p_b)
        assert result.engine == "zoo-dp"
        assert result.exact
        ref = _exhaustive_weighted(config, p_a, p_b)
        assert result.p_error == pytest.approx(ref, abs=1e-12)
        ie = gear_inclusion_exclusion(config, p_a, p_b)
        assert ie.p_error == pytest.approx(result.p_error, abs=1e-12)

    @pytest.mark.parametrize("config", SMALL_CONFIGS,
                             ids=lambda c: c.describe())
    def test_matches_weighted_enumeration_equiprobable(self, config):
        self._cross_validate(config, 0.5, 0.5)

    @pytest.mark.parametrize("config", SMALL_CONFIGS,
                             ids=lambda c: c.describe())
    def test_matches_weighted_enumeration_biased(self, config):
        p_a = [0.1 + 0.08 * i for i in range(config.n)]
        p_b = [0.9 - 0.07 * i for i in range(config.n)]
        self._cross_validate(config, p_a, p_b)

    def test_exact_config_has_zero_error(self):
        assert _run(GeArConfig(8, 8, 0)).p_error == pytest.approx(0.0)

    def test_matches_exhaustive_count(self):
        cfg = GeArConfig(8, 2, 2)
        oracle = _run(cfg, engine="zoo-exhaustive")
        assert oracle.cases == 1 << (2 * cfg.n)
        assert oracle.p_error == pytest.approx(_run(cfg).p_error, abs=1e-12)

    def test_more_prediction_bits_reduce_error(self):
        # GeAr(8, 2, P): raising P monotonically lowers the error.
        errors = [_run(GeArConfig(8, 2, p)).p_error for p in (0, 2, 4, 6)]
        assert errors == sorted(errors, reverse=True)
        assert errors[2] > 0.0      # P=4 is still approximate (k=2)
        assert errors[3] == 0.0     # P=6 makes L=N: a single exact window

    def test_success_complements_error(self):
        result = _run(GeArConfig(6, 2, 2), 0.3, 0.7)
        assert result.p_success == pytest.approx(1 - result.p_error)


class TestSubAdderMarginals:
    def test_marginal_count(self):
        cfg = GeArConfig(8, 2, 2)
        marginals = gear_subadder_error_probabilities(cfg)
        assert len(marginals) == cfg.num_subadders - 1

    def test_known_value_for_p0_split(self):
        # GeAr(4,2,0): sub-adder 1 errs iff the true carry into bit 2 is
        # 1.  For uniform bits that probability is P(carry of 2-bit
        # add) = (2^2-1)* ... = by direct enumeration 6/16.
        cfg = GeArConfig(4, 2, 0)
        (marginal,) = gear_subadder_error_probabilities(cfg)
        count = sum(
            1 for a in range(4) for b in range(4) if a + b >= 4
        )
        assert marginal == pytest.approx(count / 16)

    def test_union_bound(self):
        cfg = GeArConfig(8, 1, 3)
        total = _run(cfg).p_error
        marginals = gear_subadder_error_probabilities(cfg)
        assert total <= sum(marginals) + 1e-12
        assert total >= max(marginals) - 1e-12


class TestInclusionExclusionBaseline:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
    def test_agrees_with_dp(self, config):
        report = gear_inclusion_exclusion(config, 0.4, 0.6)
        dp = _run(config, 0.4, 0.6).p_error
        assert report.p_error == pytest.approx(dp, abs=1e-10)

    def test_term_count(self):
        cfg = GeArConfig(8, 2, 2)  # k = 3 -> 2 events -> 3 terms
        report = gear_inclusion_exclusion(cfg)
        assert report.terms_evaluated == 3
        assert report.num_subadders == 3

    def test_width_guard(self):
        cfg = GeArConfig(46, 2, 2)  # k = 22 -> 21 events
        with pytest.raises(AnalysisError):
            gear_inclusion_exclusion(cfg)


class TestMonteCarlo:
    def test_converges_to_dp(self):
        cfg = GeArConfig(8, 2, 2)
        dp = _run(cfg).p_error
        mc = _run(cfg, engine="zoo-mc", samples=400_000, seed=2)
        assert not mc.exact
        assert abs(mc.p_error - dp) < 3e-3

    def test_sample_validation(self):
        with pytest.raises(AnalysisError, match="samples"):
            _run(GeArConfig(4, 2, 0), engine="zoo-mc", samples=-1)


class TestScalability:
    def test_wide_gear_analysis_is_fast_and_sane(self):
        # 64-bit GeAr: hopeless for enumeration, trivial for the DP.
        result = _run(GeArConfig(64, 4, 4))
        assert result.engine == "zoo-dp"
        assert 0.0 < result.p_error < 1.0
        # sanity: more sub-adders (same P) err more than fewer.
        assert result.p_error > _run(GeArConfig(64, 12, 4)).p_error
