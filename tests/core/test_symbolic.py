"""Tests for the symbolic closed-form error expressions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import AnalysisError
from repro.core.recursive import analyze_chain
from repro.core.symbolic import Polynomial, symbolic_error_probability
from repro.core.truth_table import ACCURATE


class TestPolynomialAlgebra:
    def test_constants_and_variables(self):
        assert Polynomial.constant(0).is_zero()
        assert Polynomial.constant(3).evaluate() == 3
        p = Polynomial.variable("p")
        assert p.evaluate(p=Fraction(1, 2)) == Fraction(1, 2)
        assert p.degree() == 1

    def test_arithmetic_identities(self):
        p = Polynomial.variable("p")
        q = Polynomial.variable("q")
        expr = (1 - p) * (1 - q) + p * q
        assert expr.evaluate(p=0, q=0) == 1
        assert expr.evaluate(p=1, q=0) == 0
        assert expr.evaluate(p=Fraction(1, 2), q=Fraction(1, 2)) == Fraction(1, 2)

    def test_reflected_operators(self):
        p = Polynomial.variable("p")
        assert (1 - p).evaluate(p=Fraction(1, 4)) == Fraction(3, 4)
        assert (2 * p).evaluate(p=3) == 6
        assert (1 + p).evaluate(p=1) == 2

    def test_negation_and_subtraction(self):
        p = Polynomial.variable("p")
        assert (-(p - 1)).evaluate(p=0) == 1
        assert (p - p).is_zero()

    def test_multiplication_merges_exponents(self):
        p = Polynomial.variable("p")
        cubed = p * p * p
        assert cubed.degree() == 3
        assert cubed.evaluate(p=2) == 8

    def test_equality_with_scalars(self):
        assert Polynomial.constant(2) == 2
        assert (Polynomial.variable("p") * 0) == 0

    def test_missing_variable_on_evaluate(self):
        with pytest.raises(AnalysisError, match="missing values"):
            Polynomial.variable("p").evaluate()

    def test_substitute_partial(self):
        p = Polynomial.variable("p")
        q = Polynomial.variable("q")
        expr = (p * q + q).substitute(p=Fraction(1, 2))
        assert expr.variables() == ["q"]
        assert expr.evaluate(q=2) == 3

    def test_to_string(self):
        p = Polynomial.variable("p")
        expr = 1 - 2 * p * p + p * p * p
        assert expr.to_string() == "1 - 2*p^2 + p^3"
        assert Polynomial().to_string() == "0"

    def test_hash_consistency(self):
        p = Polynomial.variable("p")
        assert hash(p + 1 - 1) == hash(p)


class TestSymbolicError:
    def test_known_closed_forms(self):
        # LPAA 5 single stage: error rows are (001),(011),(100),(110)
        # with total mass 2p(1-p) at uniform p.
        assert symbolic_error_probability("LPAA 5", 1).to_string() == \
            "2*p - 2*p^2"
        # the accurate adder: identically zero at any width.
        assert symbolic_error_probability(ACCURATE, 3).is_zero()

    def test_uniform_degree_bound(self):
        poly = symbolic_error_probability("LPAA 1", 4)
        assert poly.degree() <= 2 * 4 + 1

    def test_endpoint_probabilities_are_exact_bits(self):
        # at p = 0 or 1 every input is deterministic: P(E) in {0, 1}.
        for cell in ("LPAA 1", "LPAA 2", "LPAA 6"):
            poly = symbolic_error_probability(cell, 3)
            assert poly.evaluate(p=0) in (0, 1)
            assert poly.evaluate(p=1) in (0, 1)

    def test_per_bit_mode_matches_table7_point(self):
        poly = symbolic_error_probability("LPAA 1", 2, mode="per-bit")
        value = poly.evaluate(
            a0=Fraction(1, 10), a1=Fraction(1, 10),
            b0=Fraction(1, 10), b1=Fraction(1, 10),
            c=Fraction(1, 10),
        )
        assert value == Fraction(30780 - 0, 100000)  # 0.30780 exactly

    def test_per_bit_is_multilinear(self):
        poly = symbolic_error_probability("LPAA 6", 2, mode="per-bit")
        for mono in poly.terms:
            assert all(exp == 1 for _, exp in mono)

    def test_hybrid_chain_supported(self):
        poly = symbolic_error_probability(["LPAA 7", "LPAA 1"], None)
        numeric = float(analyze_chain(["LPAA 7", "LPAA 1"], None,
                                      0.3, 0.3, 0.3).p_error)
        sym = float(poly.evaluate(p=Fraction(3, 10)))
        assert sym == pytest.approx(numeric, abs=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(AnalysisError, match="unknown mode"):
            symbolic_error_probability("LPAA 1", 2, mode="magic")

    def test_term_guard(self):
        with pytest.raises(AnalysisError, match="max_terms"):
            symbolic_error_probability("LPAA 1", 6, mode="per-bit",
                                       max_terms=10)


@given(
    cell_index=st.integers(1, 7),
    width=st.integers(1, 6),
    p=st.fractions(min_value=0, max_value=1, max_denominator=20),
)
@settings(max_examples=60, deadline=None)
def test_symbolic_matches_numeric_everywhere(cell_index, width, p):
    from repro.core.adders import paper_cell

    cell = paper_cell(cell_index)
    poly = symbolic_error_probability(cell, width)
    numeric = float(analyze_chain(cell, width, float(p), float(p),
                                  float(p)).p_error)
    assert float(poly.evaluate(p=p)) == pytest.approx(numeric, abs=1e-9)
