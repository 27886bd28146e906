"""Error-masking analysis: when is the paper's ``P(Error)`` exact?

The recursion computes the probability that *every stage* reproduces the
accurate full adder's sum and carry.  An adder's final output could in
principle still be numerically correct after an internal carry
divergence -- the wrong carry would have to enter the next stage, leave
that stage's sum bit untouched, and the two carry chains re-converge
before (or at) the MSB.  When that can happen, the recursion's
``P(Error)`` is a strict *upper bound* on the true word-level error
probability rather than exact.

This module decides the question structurally (no probabilities
involved) with a reachability search over the 8-state space
``(approx carry, exact carry, any-stage-erred)``:

* :func:`chain_is_exact` -- exactness of the recursion for one concrete
  (possibly hybrid) chain;
* :func:`masking_analysis` -- per-cell report, including whether *any*
  uniform chain width can mask.

For all seven paper LPAAs masking is impossible (each divergence
immediately corrupts an output bit), which is why the paper's
exhaustive-simulation validation matches bit-perfectly; the test suite
pins this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from .recursive import CellSpec, resolve_chain
from .truth_table import ACCURATE, ErrorCase
from .types import RowOutput, row_index

#: Search state: (carry of the approximate chain, carry of the exact
#: chain, has any stage so far deviated from the accurate adder).
_State = Tuple[int, int, bool]

#: Both chains share the external carry-in and no stage has run yet.
_INITIAL_STATES: FrozenSet[_State] = frozenset({(0, 0, False),
                                                (1, 1, False)})


@lru_cache(maxsize=None)
def _successors(
    rows: Tuple[RowOutput, ...], states: FrozenSet[_State]
) -> FrozenSet[_State]:
    """All states one stage of a cell with truth table *rows* reaches
    from *states* while keeping its output bit correct.

    A transition exists for each operand pair ``(a, b)`` whose
    approximate sum (computed with the approximate carry) matches the
    exact sum (computed with the exact carry).  The *erred* flag is set
    whenever the stage's behaviour on its own inputs deviates from the
    accurate adder, i.e. the stage is a non-success in the paper's
    sense.  Memoised per ``(rows, states)``: at most 256 state sets per
    distinct truth table, so a chain costs one lookup a stage.
    """
    exact = ACCURATE.rows
    successors: Set[_State] = set()
    for ca, ce, erred in states:
        for a in (0, 1):
            for b in (0, 1):
                approx = rows[row_index(a, b, ca)]
                sum_exact, ce_next = exact[row_index(a, b, ce)]
                if approx[0] != sum_exact:
                    continue  # output bit wrong: no fully correct path
                stage_ok = approx == exact[row_index(a, b, ca)]
                successors.add((approx[1], ce_next, erred or not stage_ok))
    return frozenset(successors)


def chain_is_exact(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
) -> bool:
    """``True`` iff the recursion's ``P(Error)`` is exact for this chain.

    Exactness fails iff some input assignment produces a fully correct
    (N+1)-bit output even though a stage deviated from the accurate
    adder.  We search for such an assignment over the 8-state space; the
    chain is exact when no accepting state (``carry chains converged``
    and ``erred``) is reachable at the end.
    """
    states = _INITIAL_STATES
    for table in resolve_chain(cell, width):
        states = _successors(table.rows, states)
        if not states:
            return True  # no fully-correct path survives at all
    return not any(ca == ce and erred for ca, ce, erred in states)


@dataclass(frozen=True)
class MaskingReport:
    """Structural masking analysis of a single cell."""

    cell_name: str
    #: Error cases whose sum bit is still correct (only these can start
    #: a silent carry divergence).
    silent_divergence_cases: Tuple[ErrorCase, ...]
    #: True iff some uniform chain width of this cell can mask an error,
    #: making the recursion a strict upper bound at that width.
    can_mask_at_some_width: bool

    @property
    def recursion_is_always_exact(self) -> bool:
        """Recursion == true word-level error at every width."""
        return not self.can_mask_at_some_width


def masking_analysis(cell: CellSpec) -> MaskingReport:
    """Analyse whether uniform chains of *cell* can ever mask an error.

    Runs the reachability search to a fixpoint: since the state space
    has only eight elements, the set of states reachable after ``k``
    stages stabilises quickly, and masking is possible iff an accepting
    state ``(c, c, erred=True)`` ever appears.
    """
    table = resolve_chain(cell, 1)[0]
    silent = tuple(
        case for case in table.error_cases()
        if not case.sum_wrong and case.cout_wrong
    )

    seen_frontiers: Set[FrozenSet[_State]] = set()
    states = _INITIAL_STATES
    can_mask = False
    while True:
        states = _successors(table.rows, states)
        if any(ca == ce and erred for ca, ce, erred in states):
            can_mask = True
            break
        if states in seen_frontiers or not states:
            break
        seen_frontiers.add(states)

    return MaskingReport(
        cell_name=table.name,
        silent_divergence_cases=silent,
        can_mask_at_some_width=can_mask,
    )


def masking_summary(cells: Sequence[CellSpec]) -> List[MaskingReport]:
    """Run :func:`masking_analysis` over several cells."""
    return [masking_analysis(cell) for cell in cells]
