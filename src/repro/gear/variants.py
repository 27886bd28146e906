"""Named low-latency adders as GeAr configurations.

The GeAr paper (ref [17]) positions GeAr as the generic model that
"captures all of the prominent previously proposed LLAAs"; the DAC'17
paper inherits that claim (§2.2).  This module provides the two mappings
that follow directly from the architectures' definitions, so the
library's exact GeAr analysis covers those named adders too:

* **ACA-I** (Almost Correct Adder, Verma et al. -- paper ref [19]):
  every sum bit is computed from a sliding window of the previous ``L``
  bit positions, i.e. one new result bit per window: ``GeAr(N, R=1,
  P=L-1)``.
* **ETAII** (Error-Tolerant Adder type II, Zhu et al.): the word is cut
  into ``X``-bit blocks and each block's carry-in is *generated* (not
  propagated) from only the previous block: ``GeAr(N, R=X, P=X)``.

Both require the usual GeAr divisibility constraint to tile the word;
the constructors validate it and raise otherwise.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.exceptions import GeArConfigError
from .config import GeArConfig


def aca_i(n: int, window: int) -> GeArConfig:
    """ACA-I(N, L): sliding L-bit windows, one result bit each.

    >>> aca_i(16, 4).describe()
    'GeAr(N=16, R=1, P=3), k=13, L=4'
    """
    if window < 1:
        raise GeArConfigError(f"ACA-I window must be >= 1, got {window}")
    if window > n:
        raise GeArConfigError(
            f"ACA-I window {window} exceeds the word width {n}"
        )
    return GeArConfig(n, 1, window - 1)


def etaii(n: int, block: int) -> GeArConfig:
    """ETAII(N, X): X-bit blocks with carry speculated from one block.

    >>> etaii(16, 4).describe()
    'GeAr(N=16, R=4, P=4), k=3, L=8'
    """
    if block < 1:
        raise GeArConfigError(f"ETAII block must be >= 1, got {block}")
    if 2 * block > n:
        raise GeArConfigError(
            f"ETAII needs at least two {block}-bit blocks in {n} bits"
        )
    if n % block != 0:
        raise GeArConfigError(
            f"ETAII blocks of {block} bits do not tile {n} bits"
        )
    return GeArConfig(n, block, block)


def accurate_rca(n: int) -> GeArConfig:
    """The degenerate single-window configuration: an exact N-bit adder."""
    return GeArConfig(n, n, 0)


def named_variants(n: int) -> Dict[str, GeArConfig]:
    """A comparison set of named LLAA instances at width *n*.

    Includes every ACA-I window and ETAII block size that fits, plus the
    exact adder, keyed by conventional names like ``"ACA-I(16,4)"``.
    """
    variants: Dict[str, GeArConfig] = {f"RCA({n})": accurate_rca(n)}
    for window in range(2, n):
        try:
            variants[f"ACA-I({n},{window})"] = aca_i(n, window)
        except GeArConfigError:
            continue
    for block in range(1, n // 2 + 1):
        try:
            variants[f"ETAII({n},{block})"] = etaii(n, block)
        except GeArConfigError:
            continue
    return variants


def variant_comparison(n: int) -> List[Dict[str, object]]:
    """Error/latency rows for every named variant at width *n*.

    Delay uses the unit-gate ripple model of a sub-adder chain (length
    L), matching :func:`repro.circuits.timing.gear_delay_model`.
    """
    from .. import engine as _engine
    from ..circuits.timing import gear_delay_model
    from ..core.adder_zoo import from_gear

    rows = []
    for name, config in named_variants(n).items():
        request = _engine.AnalysisRequest.zoo(from_gear(config))
        rows.append(
            {
                "name": name,
                "config": config.describe(),
                "l": config.l,
                "subadders": config.num_subadders,
                "delay": gear_delay_model(config),
                "p_error": _engine.run(request).p_error,
            }
        )
    rows.sort(key=lambda r: (r["p_error"], r["delay"]))
    return rows
