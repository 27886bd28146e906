"""Integration tests: multi-subsystem flows a real user would run.

Each test exercises a complete pipeline across package boundaries, the
way the examples do, and checks the end-to-end invariants rather than
unit behaviour.
"""

import numpy as np
import pytest

from repro.apps.imaging import approximate_blend, psnr, synthetic_image
from repro.circuits.power import PowerModel
from repro.circuits.ripple import build_ripple_netlist, netlist_add_array
from repro.core.hybrid import HybridChain
from repro.core.magnitude import error_pmf
from repro.core.masking import chain_is_exact
from repro.core.metrics import metrics_from_pmf, metrics_from_samples
from repro.core.recursive import analyze_chain
from repro.explore.design_space import sweep_design_space
from repro.explore.hybrid_search import optimal_hybrid
from repro.explore.pareto import pareto_front
from repro.simulation.montecarlo import simulate_samples


class TestSweepToParetoToHybrid:
    def test_full_exploration_pipeline(self):
        cells = [f"LPAA {i}" for i in range(1, 8)]
        model = PowerModel()
        # 1. sweep with power attached
        points = sweep_design_space(cells, [8], [0.2], power_model=model)
        # 2. Pareto-filter error vs power
        front = pareto_front(points, ("error", "power"))
        assert 0 < len(front) <= len(points)
        # 3. every front member must appear undominated in the raw sweep
        for point in front:
            dominated = [
                other for other in points
                if other.p_error < point.p_error
                and other.power_nw < point.power_nw
            ]
            assert not dominated
        # 4. the optimal hybrid at the same operating point beats (or
        #    ties) the best uniform front member on error
        best_uniform = min(front, key=lambda p: p.p_error)
        hybrid = optimal_hybrid(cells, 8, 0.2, 0.2, p_cin=0.2)
        assert hybrid.p_error <= best_uniform.p_error + 1e-12


class TestStructuralStatisticalAgreement:
    def test_netlist_monte_carlo_matches_analytical(self):
        # gate-level netlist -> random stimulus -> word-level error rate
        # must agree with the recursion's P(E).
        width = 5
        cell = "LPAA 4"
        netlist = build_ripple_netlist(cell, width)
        rng = np.random.default_rng(42)
        samples = 100_000
        a = rng.integers(0, 1 << width, samples)
        b = rng.integers(0, 1 << width, samples)
        cin = rng.integers(0, 2, samples)
        got = netlist_add_array(netlist, a, b, cin, width)
        error_rate = float((got != a + b + cin).mean())
        analytical = float(analyze_chain(cell, width, 0.5, 0.5, 0.5).p_error)
        assert error_rate == pytest.approx(analytical, abs=5e-3)


class TestMetricsPipelines:
    def test_pmf_and_sampled_metrics_agree(self):
        chain = HybridChain.from_spec("LPAA6:3, accurate:3")
        assert chain_is_exact(list(chain.cells))
        pmf = error_pmf(list(chain.cells), None, 0.5, 0.5, 0.5)
        analytic = metrics_from_pmf(pmf, width=6)
        approx, exact = simulate_samples(
            list(chain.cells), None, 0.5, 0.5, 0.5,
            samples=300_000, seed=9,
        )
        sampled = metrics_from_samples(approx, exact, width=6)
        assert sampled.error_rate == pytest.approx(analytic.error_rate,
                                                   abs=3e-3)
        assert sampled.med == pytest.approx(analytic.med, rel=0.05)
        assert sampled.wce <= analytic.wce

    def test_error_rate_from_recursion_shows_up_in_images(self):
        # a cell with higher analytical error on the approximated LSBs
        # must not *improve* image quality, across several images.
        img_a = synthetic_image((24, 24), "noise", seed=1)
        img_b = synthetic_image((24, 24), "checker")
        exact = approximate_blend(img_a, img_b, "accurate", approx_bits=0)
        chain_small = ["LPAA 7"] * 3 + ["accurate"] * 5
        chain_large = ["LPAA 2"] * 3 + ["accurate"] * 5
        p_small = analyze_chain(chain_small, None, 0.5, 0.5, 0.0).p_error
        p_large = analyze_chain(chain_large, None, 0.5, 0.5, 0.0).p_error
        assert p_small < p_large
        q_small = psnr(exact, approximate_blend(img_a, img_b, "LPAA 7",
                                                approx_bits=3))
        q_large = psnr(exact, approximate_blend(img_a, img_b, "LPAA 2",
                                                approx_bits=3))
        # correlation, not a theorem: allow a small dB slack
        assert q_small > q_large - 3.0


class TestCustomCellEndToEnd:
    def test_user_cell_through_every_engine(self):
        from repro.circuits.cells import synthesize_cell
        from repro.core.truth_table import ACCURATE, FullAdderTruthTable
        from repro.simulation.exhaustive import exhaustive_error_probability

        rows = list(ACCURATE.rows)
        rows[0] = (1, 0)  # err only on (0,0,0)
        cell = FullAdderTruthTable(rows, name="flip000")

        # analytical
        analytical = float(analyze_chain(cell, 4, 0.3, 0.3, 0.3).p_error)
        # oracle
        oracle = exhaustive_error_probability(cell, 4, 0.3, 0.3, 0.3)
        assert analytical == pytest.approx(oracle, abs=1e-12)
        # synthesis
        impl = synthesize_cell(cell)
        assert impl.evaluate(0, 0, 0) == (1, 0)
        # masking: the corrupted row has a wrong sum, so no masking
        assert chain_is_exact(cell, 4)
        # magnitude: the only error adds +1 at some bit position
        pmf = error_pmf(cell, 4, 0.3, 0.3, 0.3)
        assert all(delta >= 0 for delta in pmf)
