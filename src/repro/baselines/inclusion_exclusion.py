"""Inclusion-exclusion analytical baseline (paper §3, the method argued
against).

Prior analytical work (Mazahir et al., IEEE TC 2016 -- paper ref [12])
expresses the word-level error probability of a multi-stage approximate
adder through the principle of inclusion-exclusion over per-stage error
events ``E_i`` ("stage *i* deviates from the accurate adder on its own
inputs"):

``P(Error) = P(U E_i) = sum over non-empty S of (-1)^(|S|+1) P(AND_{i in S} E_i)``

The joint probabilities are themselves chain computations (the events
couple through the carry), so the whole thing costs ``Theta(N * 2^N)``
-- which is the paper's Table 3 point.  We implement it faithfully:

* :func:`stage_error_event_probability` -- ``P(AND_{i in S} E_i)`` by a
  carry-distribution DP with forced erroneous transitions on ``S``;
* :func:`chain_inclusion_exclusion` -- the full expansion, guarded by a
  width limit.  It is the Table 3 baseline, called directly rather
  than registered as an engine: the router must never pick it;
* :class:`InclusionExclusionReport` -- result plus term accounting, so
  benches can show the term blow-up next to the numerically identical
  recursive result.

Agreement with :func:`repro.core.recursive.analyze_chain` is exact
(both compute ``1 - P(no stage errs)``), which the tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, List, Optional, Sequence, Union

from ..core.exceptions import AnalysisError
from ..core.recursive import CellSpec, resolve_chain
from ..core.truth_table import ACCURATE, FullAdderTruthTable
from ..core.types import (
    Probability,
    validate_probability,
    validate_probability_vector,
)
from ..obs import metrics as _metrics
from ..obs.tracing import trace_span

#: 2^20 subsets is already ~1M chain DPs; refuse anything wider.
MAX_IE_WIDTH = 20


def _stage_transitions(
    table: FullAdderTruthTable,
    p_a: float,
    p_b: float,
    erroneous: bool,
) -> List[List[float]]:
    """Carry transition matrix ``T[c_in][c_out]`` restricted to rows that
    are erroneous (or to all rows when *erroneous* is False)."""
    t = [[0.0, 0.0], [0.0, 0.0]]
    for a in (0, 1):
        wa = p_a if a else 1.0 - p_a
        for b in (0, 1):
            wb = p_b if b else 1.0 - p_b
            for c in (0, 1):
                outputs = table.evaluate(a, b, c)
                is_err = outputs != ACCURATE.evaluate(a, b, c)
                if erroneous and not is_err:
                    continue
                t[c][outputs[1]] += wa * wb
    return t


def stage_error_event_probability(
    cells: Sequence[FullAdderTruthTable],
    subset: FrozenSet[int],
    p_a: Sequence[float],
    p_b: Sequence[float],
    p_cin: float,
) -> float:
    """``P(AND_{i in subset} E_i)``: every stage in *subset* errs.

    Stages outside the subset are unconstrained (their err/no-err
    branches are both kept), so the DP marginalises over them while the
    carry distribution follows the *approximate* chain.
    """
    dist = [1.0 - p_cin, p_cin]
    for i, table in enumerate(cells):
        if i in subset:
            t = _stage_transitions(table, p_a[i], p_b[i], erroneous=True)
        else:
            t = _stage_transitions(table, p_a[i], p_b[i], erroneous=False)
        dist = [
            dist[0] * t[0][0] + dist[1] * t[1][0],
            dist[0] * t[0][1] + dist[1] * t[1][1],
        ]
    return dist[0] + dist[1]


@dataclass(frozen=True)
class InclusionExclusionReport:
    """Result of the IE expansion with its cost accounting."""

    p_error: float
    width: int
    terms_evaluated: int

    @property
    def p_success(self) -> float:
        """``1 - p_error``."""
        return 1.0 - self.p_error


def chain_inclusion_exclusion(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    max_width: int = MAX_IE_WIDTH,
) -> InclusionExclusionReport:
    """The full IE expansion -- numerically identical to the recursive
    method but exponentially more expensive: all ``2^N - 1`` terms.

    >>> report = chain_inclusion_exclusion("LPAA 6", 8, 0.1, 0.1, 0.1)
    >>> report.terms_evaluated, round(report.p_error, 5)
    (255, 0.16953)
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    if n > max_width:
        raise AnalysisError(
            f"inclusion-exclusion over {n} stages needs 2^{n} - 1 terms; "
            f"refusing beyond {max_width} (use the recursive engine)"
        )
    pa = [float(p) for p in validate_probability_vector(p_a, n, "p_a")]
    pb = [float(p) for p in validate_probability_vector(p_b, n, "p_b")]
    pc = float(validate_probability(p_cin, "p_cin"))

    p_union = 0.0
    terms = 0
    indices = range(n)
    with _metrics.timed("baselines.ie.expansion"), \
            trace_span("baselines.ie.expansion", width=n):
        for size in range(1, n + 1):
            sign = 1.0 if size % 2 == 1 else -1.0
            for subset in combinations(indices, size):
                terms += 1
                p_union += sign * stage_error_event_probability(
                    cells, frozenset(subset), pa, pb, pc
                )
    # Live Table 3 cost accounting: the term blow-up the recursive
    # engine avoids, visible in any --metrics-out snapshot.
    if _metrics.is_enabled():
        _metrics.get_registry().counter("baselines.ie.terms").add(terms)
    # Clamp tiny negative drift from catastrophic cancellation -- the
    # very pathology the paper's method avoids.
    p_error = min(max(p_union, 0.0), 1.0)
    return InclusionExclusionReport(p_error=p_error, width=n,
                                    terms_evaluated=terms)


def single_stage_error_probabilities(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
) -> List[float]:
    """Marginal per-stage error probabilities ``P(E_i)``.

    Their plain sum over-counts the word-level error (challenge 2 in
    paper §3); exposed so benches can demonstrate exactly that.
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    pa = [float(p) for p in validate_probability_vector(p_a, n, "p_a")]
    pb = [float(p) for p in validate_probability_vector(p_b, n, "p_b")]
    pc = float(validate_probability(p_cin, "p_cin"))
    return [
        stage_error_event_probability(cells, frozenset({i}), pa, pb, pc)
        for i in range(n)
    ]
