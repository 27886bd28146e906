"""Extension bench: symbolic error equations and ANT protection.

Two claims the paper makes in passing, made concrete:

* §5: "analytically derived generic error equations ... can be
  instantiated to obtain the error for any given value of the input
  probabilities" -- the symbolic engine prints those equations and this
  bench instantiates one across a probability grid against the numeric
  engine;
* §2.1's ANT architecture: wrapping a poor LPAA in a reduced-precision
  replica buys a *hard* worst-case error bound the raw cell lacks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.ant import AntAdder, ant_quality_experiment
from repro.core.recursive import analyze_chain
from repro.core.symbolic import symbolic_error_probability
from repro.reporting import ascii_table

from conftest import emit


def test_ext_symbolic_equations(benchmark):
    rows = []
    for name in ("LPAA 1", "LPAA 5", "LPAA 6", "LPAA 7"):
        poly = symbolic_error_probability(name, 2)
        rows.append([f"{name}, N=2", poly.to_string()])
    emit(ascii_table(
        ["chain", "closed-form P(Error)(p)"],
        rows,
        title="Ext: generic error equations (uniform input probability p)",
    ))

    # instantiate the LPAA 6 N=8 equation across a grid vs the numeric
    # engine -- identical to float precision.
    poly = symbolic_error_probability("LPAA 6", 8)
    for p in np.linspace(0, 1, 21):
        sym = float(poly.evaluate(p=Fraction(p).limit_denominator(1000)))
        num = float(analyze_chain(
            "LPAA 6", 8,
            float(Fraction(p).limit_denominator(1000)),
            float(Fraction(p).limit_denominator(1000)),
            float(Fraction(p).limit_denominator(1000)),
        ).p_error)
        assert sym == pytest.approx(num, abs=1e-9)
    emit(f"Ext: LPAA 6 N=8 equation has degree {poly.degree()} and "
         f"{len(poly.terms)} terms; matches numeric engine on a 21-point "
         "grid.")

    benchmark(lambda: symbolic_error_probability("LPAA 6", 8))


def test_ext_ant_protection(benchmark):
    width, k = 8, 3
    adder = AntAdder(width, "LPAA 2", truncation_bits=k)
    main, ant, usage = ant_quality_experiment(
        width, "LPAA 2", truncation_bits=k, samples=200_000, seed=4
    )
    emit(ascii_table(
        ["datapath", "ER", "MED", "MSE", "WCE"],
        [
            ["raw LPAA 2 x8", main.error_rate, main.med, main.mse, main.wce],
            [f"ANT(k={k})", ant.error_rate, ant.med, ant.mse, ant.wce],
        ],
        digits=4,
        title=f"Ext: ANT protection (replica usage {usage:.1%}, "
              f"hard bound {adder.worst_case_error_bound()})",
    ))
    assert ant.wce <= adder.worst_case_error_bound()
    assert main.wce > adder.worst_case_error_bound()
    assert ant.mse < main.mse

    benchmark.pedantic(
        lambda: ant_quality_experiment(width, "LPAA 2", truncation_bits=k,
                                       samples=50_000, seed=4),
        rounds=3, iterations=1,
    )
