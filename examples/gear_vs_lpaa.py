#!/usr/bin/env python3
"""Low-latency (GeAr) vs low-power (LPAA) approximation, analysed with
one toolbox.

The paper's §1.1 claims the proposed analysis philosophy covers both
adder families.  This example puts that side by side:

* sweep GeAr(16, R, P) configurations and compute their exact error
  probability with the linear DP (no inclusion-exclusion): a GeAr
  adder is the zoo adder ``gear:N:R:P``, answered by ``zoo-dp``;
* compare against 16-bit LPAA chains at the same input statistics;
* show where each family's error comes from (per-sub-adder marginals vs
  per-stage survival), and validate one GeAr point three ways.

Run:  python examples/gear_vs_lpaa.py
"""

from repro import engine
from repro.core.adder_zoo import from_gear
from repro.core.recursive import analyze_chain
from repro.engine import AnalysisRequest
from repro.gear.analysis import (
    gear_inclusion_exclusion,
    gear_subadder_error_probabilities,
)
from repro.gear.config import GeArConfig
from repro.reporting import ascii_table

N = 16
P_INPUT = 0.5


def main() -> None:
    # GeAr configuration sweep: error falls as prediction bits grow,
    # and rises with the number of independent sub-adders.
    rows = []
    for config in GeArConfig.valid_configs(N):
        if config.is_exact or config.r < 2:
            continue
        request = AnalysisRequest.zoo(from_gear(config), P_INPUT, P_INPUT)
        p_error = engine.run(request).p_error
        rows.append([
            f"R={config.r}, P={config.p}",
            config.num_subadders,
            config.l,
            p_error,
        ])
    rows.sort(key=lambda r: r[3])
    print(ascii_table(
        ["GeAr(16, R, P)", "sub-adders k", "latency chain L", "P(Error)"],
        rows[:12], digits=6,
        title="GeAr design points at p = 0.5 (best 12 by error)",
    ))
    print()

    # LPAA chains at the same width/statistics for contrast.
    lpaa_rows = []
    for i in (1, 6, 7):
        result = analyze_chain(f"LPAA {i}", width=N,
                               p_a=P_INPUT, p_b=P_INPUT, p_cin=P_INPUT)
        lpaa_rows.append([f"LPAA {i} x{N}", float(result.p_error)])
    print(ascii_table(
        ["LPAA chain", "P(Error)"], lpaa_rows, digits=6,
        title="16-bit LPAA chains at p = 0.5",
    ))
    print("""
reading: GeAr trades *latency* for error and keeps P(E) moderate with a
few prediction bits, while 16-bit LPAA chains trade *power* and at
p = 0.5 are already deep in the paper's '>10 bits is hopeless' regime.
""")

    # Where GeAr errors come from: the carry each sub-adder misses.
    config = GeArConfig(16, 4, 4)
    marginals = gear_subadder_error_probabilities(config, P_INPUT, P_INPUT)
    print(config.describe())
    for i, marginal in enumerate(marginals, start=1):
        print(f"  P(sub-adder {i} mispredicts): {marginal:.6f}")
    print()

    # One point, three methods (the ablation in miniature).
    request = AnalysisRequest.zoo(from_gear(config), P_INPUT, P_INPUT)
    dp = engine.run(request).p_error
    ie = gear_inclusion_exclusion(config, P_INPUT, P_INPUT)
    mc = engine.run(request, engine="zoo-mc", samples=500_000,
                    seed=1).p_error
    print(ascii_table(
        ["method", "P(Error)"],
        [["linear DP (exact)", dp],
         [f"inclusion-exclusion ({ie.terms_evaluated} terms)", ie.p_error],
         ["Monte-Carlo 500k", mc]],
        digits=6,
        title=f"Cross-validation for {config.describe()}",
    ))


if __name__ == "__main__":
    main()
