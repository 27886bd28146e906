"""Cross-subsystem property tests (hypothesis).

These properties tie different engines to each other across randomly
generated configurations -- the strongest regression net the repo has.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import engine
from repro.core.adder_zoo import from_gear
from repro.core.adders import PAPER_LPAAS, paper_cell
from repro.core.hybrid import HybridChain
from repro.core.recursive import analyze_chain
from repro.engine import AnalysisRequest
from repro.explore.hybrid_search import optimal_hybrid
from repro.gear.analysis import gear_subadder_error_probabilities
from repro.gear.config import GeArConfig
from repro.gear.correction import (
    corrected_error_probability,
    detect_errors,
    error_count_distribution,
    gear_add_corrected,
)
from repro.gear.functional import gear_add
from repro.multiop.compressor import csa_compress, multi_operand_add
from repro.simulation.functional import ripple_add

cells = st.integers(1, 7).map(paper_cell)
probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def gear_configs(max_n: int = 12):
    """Strategy over valid GeAr configurations up to max_n bits."""
    def build(draw_tuple):
        n, r_seed, p_seed = draw_tuple
        configs = GeArConfig.valid_configs(n)
        return configs[(r_seed * 31 + p_seed) % len(configs)]

    return st.tuples(
        st.integers(2, max_n), st.integers(0, 97), st.integers(0, 89)
    ).map(build)


def gear_p_error(config, p):
    """Exact GeAr error rate: the zoo DP over ``gear:N:R:P``."""
    return engine.run(AnalysisRequest.zoo(from_gear(config), p, p)).p_error


# -- GeAr -----------------------------------------------------------------------


@given(config=gear_configs(), a_seed=st.integers(0, 10 ** 9),
       b_seed=st.integers(0, 10 ** 9))
@settings(max_examples=80, deadline=None)
def test_gear_functional_error_iff_detection(config, a_seed, b_seed):
    a = a_seed % (1 << config.n)
    b = b_seed % (1 << config.n)
    flagged = detect_errors(config, a, b)
    assert (gear_add(config, a, b) != a + b) == bool(flagged)


@given(config=gear_configs(), a_seed=st.integers(0, 10 ** 9),
       b_seed=st.integers(0, 10 ** 9))
@settings(max_examples=80, deadline=None)
def test_gear_full_correction_is_exact(config, a_seed, b_seed):
    a = a_seed % (1 << config.n)
    b = b_seed % (1 << config.n)
    result, _ = gear_add_corrected(config, a, b)
    assert result == a + b


@given(config=gear_configs(10), p=probabilities)
@settings(max_examples=50, deadline=None)
def test_gear_error_between_union_bounds(config, p):
    marginals = gear_subadder_error_probabilities(config, p, p)
    total = gear_p_error(config, p)
    assert total <= sum(marginals) + 1e-9
    assert total >= max(marginals, default=0.0) - 1e-9


@given(config=gear_configs(10), p=probabilities)
@settings(max_examples=50, deadline=None)
def test_gear_count_distribution_consistency(config, p):
    pmf = error_count_distribution(config, p, p)
    assert math.isclose(sum(pmf), 1.0, abs_tol=1e-9)
    assert math.isclose(
        1.0 - pmf[0], gear_p_error(config, p), abs_tol=1e-9
    )
    # residual error with budget b is the tail of the count PMF
    for budget in range(len(pmf)):
        residual = corrected_error_probability(config, budget, p, p)
        assert math.isclose(residual, sum(pmf[budget + 1:]), abs_tol=1e-9)


# -- carry-save -------------------------------------------------------------------


@given(
    cell=cells,
    x=st.integers(0, 255), y=st.integers(0, 255), z=st.integers(0, 255),
)
@settings(max_examples=80)
def test_csa_column_independence(cell, x, y, z):
    """Each compressor column equals the cell applied to that column."""
    s, c = csa_compress(cell, x, y, z, 8)
    for i in range(8):
        expected_s, expected_c = cell.evaluate(
            (x >> i) & 1, (y >> i) & 1, (z >> i) & 1
        )
        assert (s >> i) & 1 == expected_s
        assert (c >> (i + 1)) & 1 == expected_c


@given(
    operands=st.lists(st.integers(0, 63), min_size=1, max_size=9),
)
@settings(max_examples=80)
def test_accurate_multi_operand_add_is_sum(operands):
    assert multi_operand_add(operands, 6) == sum(operands)


@given(
    cell=cells,
    operands=st.lists(st.integers(0, 15), min_size=3, max_size=6),
)
@settings(max_examples=60)
def test_approximate_tree_with_accurate_cells_in_disguise(cell, operands):
    """If the approximate cell happens to act accurately on every column
    pattern that occurs, the tree result must equal the exact sum."""
    result = multi_operand_add(operands, 4, compress_cell=cell)
    exact = sum(operands)
    if result != exact:
        # then some column somewhere must have hit an error case
        assert cell.num_error_cases() > 0


# -- hybrid optimality ---------------------------------------------------------------


@given(
    p=st.lists(probabilities, min_size=3, max_size=5),
    subset=st.sets(st.integers(1, 7), min_size=1, max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_optimal_hybrid_never_loses_to_any_uniform(p, subset):
    names = [f"LPAA {i}" for i in sorted(subset)]
    width = len(p)
    best = optimal_hybrid(names, width, p, p)
    for name in names:
        uniform = float(
            HybridChain.uniform(name, width).error_probability(p, p)
        )
        assert best.p_error <= uniform + 1e-9


# -- correlated operands ---------------------------------------------------------------


@given(
    cell=cells,
    p_a=st.lists(probabilities, min_size=4, max_size=4),
    p_b=st.lists(probabilities, min_size=4, max_size=4),
    p_cin=probabilities,
)
@settings(max_examples=50)
def test_correlated_engine_reduces_to_standard_under_independence(
    cell, p_a, p_b, p_cin
):
    from repro.core.correlated import (
        JointBitDistribution,
        analyze_chain_correlated,
    )

    joints = [
        JointBitDistribution.independent(pa, pb)
        for pa, pb in zip(p_a, p_b)
    ]
    got = 1.0 - analyze_chain_correlated(cell, joints, p_cin)[0]
    ref = float(analyze_chain(cell, 4, p_a, p_b, p_cin).p_error)
    assert math.isclose(got, ref, abs_tol=1e-9)


@given(cell=cells, a=st.integers(0, 63))
@settings(max_examples=60)
def test_self_addition_deterministic_case(cell, a):
    """Pinning every operand bit makes the correlated analysis reduce to
    one functional doubling."""
    from repro.core.correlated import JointBitDistribution, \
        analyze_chain_correlated

    width = 6
    joints = [
        JointBitDistribution.identical(float((a >> i) & 1))
        for i in range(width)
    ]
    p_success, _ = analyze_chain_correlated(cell, joints, p_cin=0.0)
    functional_ok = ripple_add(cell, a, a, 0, width) == 2 * a
    assert p_success in (0.0, 1.0)
    if p_success == 1.0:
        assert functional_ok


# -- ripple vs paper cells -------------------------------------------------------------


@given(
    cell=cells,
    a=st.integers(0, 255), b=st.integers(0, 255), cin=st.integers(0, 1),
)
@settings(max_examples=100)
def test_paper_cells_error_iff_some_stage_errs(cell, a, b, cin):
    """For the (masking-free) paper cells, a wrong word-level output
    happens exactly when some stage hits an error row along the
    approximate carry chain."""
    width = 8
    result = ripple_add(cell, a, b, cin, width)
    stage_err = False
    carry = cin
    for i in range(width):
        bits = ((a >> i) & 1, (b >> i) & 1, carry)
        out = cell.evaluate(*bits)
        from repro.core.truth_table import ACCURATE

        if out != ACCURATE.evaluate(*bits):
            stage_err = True
        carry = out[1]
    assert (result != a + b + cin) == stage_err
