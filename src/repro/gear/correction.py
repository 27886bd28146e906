"""Error detection and configurable correction for GeAr adders.

The paper notes (§1, ref [11] -- Mazahir et al., DAC 2016) that GeAr's
errors "can be detected as well as corrected".  Detection is cheap
because a sub-adder's output block depends only on its own window: block
``i`` is wrong **iff** the true carry into its window base is 1 and all
its prediction bit pairs propagate.  Correction then increments the
block (adding ``2^(i*R+P)`` worth of the missed carry); correcting every
flagged block recovers the exact sum.

A *correction budget* makes the unit accuracy-configurable, as in [11]:
with at most ``budget`` corrections applied (LSB-first), the output is
exact iff at most ``budget`` sub-adders erred.  That residual error
probability is computed **analytically** by extending the linear carry/
propagate-run DP of :mod:`repro.gear.analysis` with an error counter --
still linear in N.

* :func:`detect_errors` -- flag mispredicted sub-adders from the inputs;
* :func:`gear_add_corrected` -- functional model with a budget;
* :func:`corrected_error_probability` -- exact residual
  ``P(more than budget sub-adders err)``;
* :func:`error_count_distribution` -- exact PMF of the number of
  erroneous sub-adders (also yields the expected correction count).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.exceptions import AnalysisError, GeArConfigError
from ..core.types import Probability, validate_probability_vector
from .analysis import _advance_bit  # shared DP step (module-internal API)
from .config import GeArConfig
from .functional import gear_add


def detect_errors(config: GeArConfig, a: int, b: int) -> List[int]:
    """Indices of sub-adders whose carry prediction fails for (a, b).

    Uses the hardware-realisable condition (true carry into the window
    base AND full propagate across the prediction bits), which the tests
    prove equivalent to comparing output blocks against the exact sum.
    """
    if a < 0 or b < 0 or a >= 1 << config.n or b >= 1 << config.n:
        raise GeArConfigError(
            f"operands must be in [0, 2^{config.n}), got {a}, {b}"
        )
    flagged = []
    for sub in config.subadders():
        if sub.index == 0:
            continue
        base = sub.low
        mask = (1 << base) - 1
        true_carry = ((a & mask) + (b & mask)) >> base
        if not true_carry:
            continue
        all_propagate = True
        for j in range(base, base + config.p):
            if ((a >> j) & 1) == ((b >> j) & 1):
                all_propagate = False
                break
        if all_propagate:
            flagged.append(sub.index)
    return flagged


def gear_add_corrected(
    config: GeArConfig,
    a: int,
    b: int,
    budget: Optional[int] = None,
) -> Tuple[int, int]:
    """GeAr addition with up to *budget* block corrections (LSB-first).

    Returns ``(result, corrections_applied)``.  ``budget=None`` corrects
    every flagged block, making the result exactly ``a + b``.

    Each correction adds the missed carry at the block's first result
    bit; because detection is exact, the corrected blocks (and the final
    carry, when the last block is corrected) match the exact sum.
    """
    if budget is not None and budget < 0:
        raise AnalysisError(f"budget must be >= 0, got {budget}")
    flagged = detect_errors(config, a, b)
    to_fix = flagged if budget is None else flagged[:budget]
    result = gear_add(config, a, b)
    exact = a + b
    subs = config.subadders()
    for index in to_fix:
        sub = subs[index]
        width = sub.high - sub.result_low + 1
        if index == config.num_subadders - 1:
            width += 1  # the final carry belongs to the last block
        mask = ((1 << width) - 1) << sub.result_low
        result = (result & ~mask) | (exact & mask)
    return result, len(to_fix)


def error_count_distribution(
    config: GeArConfig,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    max_count: Optional[int] = None,
) -> List[float]:
    """Exact PMF of the number of mispredicted sub-adders.

    Extends the linear (carry, propagate-run) DP with a saturating error
    counter.  Entry ``i`` of the returned list is ``P(#errors = i)``;
    the last entry aggregates ``>= len - 1`` when *max_count* truncates.
    """
    if max_count is not None and max_count < 0:
        raise AnalysisError(f"max_count must be >= 0, got {max_count}")
    pa = [float(p) for p in validate_probability_vector(p_a, config.n, "p_a")]
    pb = [float(p) for p in validate_probability_vector(p_b, config.n, "p_b")]
    k_events = config.num_subadders - 1
    cap = k_events if max_count is None else min(max_count, k_events)
    run_cap = config.p
    checkpoints = set(config.error_checkpoints())

    # state: (carry, run, count) -> mass; count saturates at cap (+1 bin
    # when truncated so the tail stays separate).
    bins = cap + 1
    state: Dict[Tuple[int, int, int], float] = {(0, 0, 0): 1.0}
    for j in range(config.n):
        if j in checkpoints:
            bumped: Dict[Tuple[int, int, int], float] = {}
            for (carry, run, count), mass in state.items():
                fired = carry == 1 and run >= run_cap
                new_count = min(count + 1, bins - 1) if fired else count
                key = (carry, run, new_count)
                bumped[key] = bumped.get(key, 0.0) + mass
            state = bumped
        # advance one bit for every count bin independently
        advanced: Dict[Tuple[int, int, int], float] = {}
        by_count: Dict[int, Dict[Tuple[int, int], float]] = {}
        for (carry, run, count), mass in state.items():
            by_count.setdefault(count, {})[(carry, run)] = (
                by_count.setdefault(count, {}).get((carry, run), 0.0) + mass
            )
        for count, sub_state in by_count.items():
            stepped = _advance_bit(sub_state, pa[j], pb[j], run_cap)
            for (carry, run), mass in stepped.items():
                key = (carry, run, count)
                advanced[key] = advanced.get(key, 0.0) + mass
        state = advanced

    pmf = [0.0] * bins
    for (_, _, count), mass in state.items():
        pmf[count] += mass
    return pmf


def expected_corrections(
    config: GeArConfig,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
) -> float:
    """Expected number of erroneous sub-adders (corrections needed for
    an exact result)."""
    pmf = error_count_distribution(config, p_a, p_b)
    return sum(i * p for i, p in enumerate(pmf))


def corrected_error_probability(
    config: GeArConfig,
    budget: int,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
) -> float:
    """Exact residual error probability with a correction *budget*.

    The output is wrong iff more than *budget* sub-adders mispredict
    (any uncorrected erroneous block corrupts its result bits), so this
    is the upper tail of :func:`error_count_distribution`.
    """
    if budget < 0:
        raise AnalysisError(f"budget must be >= 0, got {budget}")
    pmf = error_count_distribution(config, p_a, p_b)
    return float(sum(pmf[budget + 1:]))
