"""Statistical error analysis of GeAr adders.

The paper (§1.1) claims its recursion philosophy -- propagate exactly
the state you need, never expand inclusion-exclusion -- also covers
low-latency adders.  GeAr(N, R, P) is a windowed block adder, so the
engine serves it as a zoo request,
``AnalysisRequest.zoo(from_gear(config))`` (config string
``gear:N:R:P``): the linear carry-cut DP of :mod:`repro.core.adder_zoo`
(engine ``zoo-dp``) answers it, with ``zoo-mc`` and ``zoo-exhaustive``
as its sampling and enumeration cross-checks.

**Error event.** Sub-adder ``i >= 1`` produces a wrong contribution iff
the true carry into its window base ``i*R`` is 1 *and* all ``P`` of its
prediction bit pairs propagate (``a_j xor b_j = 1``); only then does the
missing carry survive the prediction window and corrupt the first result
bit.  Since a propagating position hands its carry through unchanged,
the condition is equivalent to: *at checkpoint position ``i*R + P`` the
running propagate-run length is >= P and the current true carry is 1*.

This module keeps the per-event view of that condition: a DP over
``(true carry, propagate-run length capped at P)`` -- ``2*(P+1)``
states, one bit at a time -- that filters the mass at checkpoints.  It
yields the per-sub-adder marginals
(:func:`gear_subadder_error_probabilities`), the correction DP of
:mod:`repro.gear.correction`, and the traditional baseline
:func:`gear_inclusion_exclusion` (paper ref [12]): all
``2^(k-1) - 1`` joint error-event terms, each via a constrained DP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Tuple, Union

from ..core.exceptions import AnalysisError
from ..core.probability import float_probability_vector
from ..core.types import Probability
from .config import GeArConfig

#: IE over more than this many sub-adder events is refused.
MAX_IE_SUBADDERS = 20

# DP state: (carry, run) -> probability, with run capped at config.p.


def _normalise_probs(
    config: GeArConfig,
    p_a: Union[Probability, Sequence[Probability]],
    p_b: Union[Probability, Sequence[Probability]],
) -> Tuple[List[float], List[float]]:
    pa = float_probability_vector(p_a, config.n, "p_a")
    pb = float_probability_vector(p_b, config.n, "p_b")
    return pa, pb


def _advance_bit(
    state: Dict[Tuple[int, int], float],
    p_a: float,
    p_b: float,
    run_cap: int,
) -> Dict[Tuple[int, int], float]:
    """One DP step over the four (a, b) combinations of the current bit."""
    nxt: Dict[Tuple[int, int], float] = {}
    for (carry, run), mass in state.items():
        if mass == 0.0:
            continue
        for a in (0, 1):
            wa = p_a if a else 1.0 - p_a
            if wa == 0.0:
                continue
            for b in (0, 1):
                wb = p_b if b else 1.0 - p_b
                w = wa * wb
                if w == 0.0:
                    continue
                total = a + b + carry
                new_carry = total >> 1
                if a ^ b:  # propagate position: run grows
                    new_run = min(run + 1, run_cap)
                else:
                    new_run = 0
                key = (new_carry, new_run)
                nxt[key] = nxt.get(key, 0.0) + mass * w
    return nxt


def _checkpoint_filter(
    state: Dict[Tuple[int, int], float],
    run_cap: int,
    require_event: bool,
) -> Dict[Tuple[int, int], float]:
    """Split the DP mass at a sub-adder checkpoint.

    ``require_event=False`` keeps only no-error mass (carry 0, or run
    shorter than P); ``require_event=True`` keeps only the event mass.
    """
    out: Dict[Tuple[int, int], float] = {}
    for (carry, run), mass in state.items():
        fired = carry == 1 and run >= run_cap
        if fired == require_event:
            out[(carry, run)] = out.get((carry, run), 0.0) + mass
    return out


def gear_subadder_error_probabilities(
    config: GeArConfig,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
) -> List[float]:
    """Marginal ``P(E_i)`` for each sub-adder ``i >= 1``.

    Each marginal is one DP pass that filters for the event at exactly
    one checkpoint and marginalises everywhere else.
    """
    pa, pb = _normalise_probs(config, p_a, p_b)
    run_cap = config.p
    marginals = []
    for checkpoint in config.error_checkpoints():
        state: Dict[Tuple[int, int], float] = {(0, 0): 1.0}
        for j in range(checkpoint):
            state = _advance_bit(state, pa[j], pb[j], run_cap)
        fired = _checkpoint_filter(state, run_cap, require_event=True)
        marginals.append(sum(fired.values()))
    return marginals


@dataclass(frozen=True)
class GeArIEReport:
    """Inclusion-exclusion result with term accounting."""

    p_error: float
    terms_evaluated: int
    num_subadders: int


def _joint_event_probability(
    config: GeArConfig,
    checkpoints: Sequence[int],
    subset: frozenset,
    pa: Sequence[float],
    pb: Sequence[float],
) -> float:
    """``P(AND of the chosen sub-adder error events)`` by constrained DP."""
    run_cap = config.p
    state: Dict[Tuple[int, int], float] = {(0, 0): 1.0}
    checkpoint_set = {cp: (idx in subset) for idx, cp in enumerate(checkpoints)}
    last_required = max(
        (cp for idx, cp in enumerate(checkpoints) if idx in subset), default=0
    )
    for j in range(last_required + 1):
        if j in checkpoint_set and checkpoint_set[j]:
            state = _checkpoint_filter(state, run_cap, require_event=True)
        if j == last_required:
            break
        state = _advance_bit(state, pa[j], pb[j], run_cap)
    return sum(state.values())


def gear_inclusion_exclusion(
    config: GeArConfig,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
) -> GeArIEReport:
    """The traditional IE analysis of GeAr (paper ref [12] style).

    Expands ``P(U E_i)`` over all non-empty subsets of the ``k - 1``
    error events.  Exponential in ``k``; numerically identical to the
    linear ``zoo-dp`` answer for ``AnalysisRequest.zoo(from_gear(config))``.
    """
    events = config.error_checkpoints()
    k = len(events)
    if k > MAX_IE_SUBADDERS:
        raise AnalysisError(
            f"IE over {k} sub-adder events needs 2^{k} - 1 terms; "
            "use engine.run(AnalysisRequest.zoo(from_gear(config))) instead"
        )
    pa, pb = _normalise_probs(config, p_a, p_b)
    p_union = 0.0
    terms = 0
    for size in range(1, k + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in combinations(range(k), size):
            terms += 1
            p_union += sign * _joint_event_probability(
                config, events, frozenset(subset), pa, pb
            )
    return GeArIEReport(
        p_error=min(max(p_union, 0.0), 1.0),
        terms_evaluated=terms,
        num_subadders=config.num_subadders,
    )
