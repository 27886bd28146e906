"""Optimal hybrid-chain search (makes paper §5's hybrid proposal concrete).

The paper observes that cells specialise by input probability and
suggests "optimally designing a hybrid multistage adder using more than
one type of LPAA", evaluated with the same recursion.  This module
actually finds such designs.

The key structure: the recursion's per-stage update is *linear* in the
success-carry state ``v = (P(C̄∩Succ), P(C∩Succ))`` -- stage *i* with
cell *c* applies a non-negative 2x2 matrix ``T_{c,i}`` (built from the
cell's K/M masks and the stage's operand probabilities), and the final
success is a linear functional ``l_{c,N-1} . v``.  Choosing the best
cell sequence is therefore a deterministic controlled linear system, and
the classic value-vector backward induction applies:

* carry a set of affine value functions ``f(v) = w . v + k`` from the
  MSB backwards, expanding each by every cell choice and pruning
  dominated vectors (sound because ``v >= 0`` componentwise);
* at the front, pick the maximising vector for the initial state and
  replay its provenance to recover the cell per stage.

With pointwise domination pruning the exact frontier stays tiny for the
7-cell paper library (tests cross-check against brute force).  A
``power_weight`` folds a per-stage power penalty into the constant part,
giving error/power trade-off designs; greedy and brute-force searchers
are provided as ablation baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..circuits.power import PowerModel
from ..core.exceptions import ExplorationError
from ..core.hybrid import HybridChain
from ..core.matrices import selected_rows
from ..core.probability import float_probability_vector
from ..core.recursive import CellSpec, resolve_cell
from ..core.truth_table import FullAdderTruthTable
from ..core.types import validate_probability
from ..core.vectorized import _stage_sums
from ..obs import metrics as _metrics
from ..obs.log import get_logger, log_event
from ..obs.provenance import RunManifest, StopWatch, build_manifest
from ..obs.tracing import trace_span
from ..runtime import chaos as _chaos
from ..runtime.budget import RunBudget, make_meter
from ..runtime.checkpoint import (
    Checkpoint,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)

_logger = get_logger("explore.hybrid_search")


def _stage_matrix(
    table: FullAdderTruthTable, p_a: float, p_b: float
) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """2x2 map ``v_next = T v`` of one stage (rows: next c0/c1 mass).

    ``T[out][in]``: contribution of incoming mass with carry *in* to the
    outgoing success mass with carry *out*.  Column *in* is the chain
    recursion's stage kernel run from the unit carry state *in*; the
    searches call this once per (stage, candidate cell).
    """
    m, k, _ = selected_rows(table)
    m0, k0 = _stage_sums(p_a, p_b, 0.0, 1.0, (m, k))
    m1, k1 = _stage_sums(p_a, p_b, 1.0, 0.0, (m, k))
    return ((k0, k1), (m0, m1))


def _final_vector(
    table: FullAdderTruthTable, p_a: float, p_b: float
) -> Tuple[float, float]:
    """Functional ``l`` with ``P(Succ) = l . v`` at the last stage."""
    l = selected_rows(table)[2]
    (l0,) = _stage_sums(p_a, p_b, 0.0, 1.0, (l,))
    (l1,) = _stage_sums(p_a, p_b, 1.0, 0.0, (l,))
    return (l0, l1)


@dataclass(frozen=True)
class _ValueVector:
    """Affine value function ``f(v) = w0*v0 + w1*v1 + const`` with the
    cell choices (from this stage to the MSB) that realise it."""

    w0: float
    w1: float
    const: float
    choices: Tuple[int, ...]

    def dominated_by(self, other: "_ValueVector") -> bool:
        return (
            other.w0 >= self.w0
            and other.w1 >= self.w1
            and other.const >= self.const
            and (other.w0, other.w1, other.const)
            != (self.w0, self.w1, self.const)
        )


def _prune(
    vectors: List[_ValueVector], cap: int
) -> Tuple[List[_ValueVector], bool]:
    """Drop dominated/duplicate value vectors; cap the frontier size.

    Returns ``(kept, truncated)`` -- *truncated* means the cap forced a
    lossy cut and the overall search degrades to a wide beam.
    """
    kept: List[_ValueVector] = []
    for vec in vectors:
        if any(vec.dominated_by(other) for other in vectors):
            continue
        kept.append(vec)
    # Deduplicate identical functionals (keep first provenance).
    unique: Dict[Tuple[float, float, float], _ValueVector] = {}
    for vec in kept:
        unique.setdefault((vec.w0, vec.w1, vec.const), vec)
    result = list(unique.values())
    truncated = len(result) > cap
    if truncated:
        # Keep the strongest by a fixed probe state.
        result.sort(key=lambda v: v.w0 + v.w1 + 2 * v.const, reverse=True)
        result = result[:cap]
    return result, truncated


@dataclass(frozen=True)
class HybridSearchResult:
    """Outcome of a hybrid-chain optimisation.

    ``truncated=True`` marks a search stopped early by its
    :class:`~repro.runtime.RunBudget`: the chain is the best design
    found so far (always a valid, analysable chain), not a proven
    optimum -- ``exact`` is False in that case and ``stop_reason``
    records why the search stopped.
    """

    chain: HybridChain
    p_error: float
    objective: float
    exact: bool
    power_nw: Optional[float] = None
    manifest: Optional[RunManifest] = None
    truncated: bool = False
    stop_reason: Optional[str] = None


def optimal_hybrid(
    cells: Sequence[CellSpec],
    width: int,
    p_a: object = 0.5,
    p_b: object = 0.5,
    p_cin: float = 0.5,
    power_weight: float = 0.0,
    power_model: Optional[PowerModel] = None,
    max_vectors: int = 4096,
    budget: Optional[RunBudget] = None,
) -> HybridSearchResult:
    """Exact optimal per-stage cell assignment by value-vector DP.

    Maximises ``P(Succ) - power_weight * total_power_nw`` (pure error
    minimisation at the default weight 0).  ``exact`` in the result is
    False only if the vector frontier had to be truncated
    (*max_vectors*), which does not occur for the paper's cell library
    at practical widths.

    With a *budget* whose deadline expires mid-induction, the search
    degrades gracefully: it falls back to :func:`greedy_hybrid` (always
    fast, always yields a valid chain) and returns that design flagged
    ``truncated=True`` with ``degraded_from="optimal"`` recorded in the
    manifest, instead of erroring with nothing to show.
    """
    if width < 1:
        raise ExplorationError(f"width must be >= 1, got {width}")
    tables = [resolve_cell(c) for c in cells]
    if not tables:
        raise ExplorationError("need at least one candidate cell")
    if power_weight < 0:
        raise ExplorationError("power_weight must be >= 0")
    if power_weight > 0 and power_model is None:
        power_model = PowerModel()
    pa = float_probability_vector(p_a, width, "p_a")
    pb = float_probability_vector(p_b, width, "p_b")
    pc = float(validate_probability(p_cin, "p_cin"))

    def stage_penalty(table: FullAdderTruthTable, i: int) -> float:
        if power_weight == 0.0:
            return 0.0
        return power_weight * power_model.power_nw(table, pa[i], pb[i], 0.5)

    watch = StopWatch()
    meter = make_meter(budget)
    degrade_reason: Optional[str] = None
    exact = True
    vectors_expanded = 0
    peak_frontier = 0
    with _metrics.timed("explore.hybrid.optimal"), \
            trace_span("explore.hybrid.optimal",
                       width=width, candidates=len(tables)):
        # Backward induction from the last stage.
        frontier: List[_ValueVector] = []
        for ci, table in enumerate(tables):
            l0, l1 = _final_vector(table, pa[width - 1], pb[width - 1])
            frontier.append(
                _ValueVector(
                    w0=l0, w1=l1,
                    const=-stage_penalty(table, width - 1),
                    choices=(ci,),
                )
            )
        vectors_expanded += len(frontier)
        frontier, truncated = _prune(frontier, max_vectors)
        exact = exact and not truncated
        peak_frontier = len(frontier)

        for i in range(width - 2, -1, -1):
            degrade_reason = meter.stop_reason()
            if degrade_reason is not None:
                break
            _chaos.tick("hybrid.optimal.stage")
            expanded: List[_ValueVector] = []
            for ci, table in enumerate(tables):
                t = _stage_matrix(table, pa[i], pb[i])
                penalty = stage_penalty(table, i)
                for vec in frontier:
                    # compose: f(T v) + const - penalty
                    w0 = vec.w0 * t[0][0] + vec.w1 * t[1][0]
                    w1 = vec.w0 * t[0][1] + vec.w1 * t[1][1]
                    expanded.append(
                        _ValueVector(
                            w0=w0,
                            w1=w1,
                            const=vec.const - penalty,
                            choices=(ci, *vec.choices),
                        )
                    )
            vectors_expanded += len(expanded)
            frontier, truncated = _prune(expanded, max_vectors)
            exact = exact and not truncated
            peak_frontier = max(peak_frontier, len(frontier))

    if _metrics.is_enabled():
        registry = _metrics.get_registry()
        registry.counter("explore.hybrid.vectors_expanded").add(
            vectors_expanded
        )
        registry.gauge("explore.hybrid.peak_frontier").set(peak_frontier)

    if degrade_reason is not None:
        # Budget expired mid-induction: a partial DP frontier cannot
        # name a full chain, so degrade to the greedy heuristic -- it
        # always returns a valid design in O(width * cells).
        greedy = greedy_hybrid(cells, width, pa, pb, pc)
        log_event(_logger, "hybrid.optimal.degraded", width=width,
                  reason=degrade_reason, p_error=greedy.p_error)
        if _metrics.is_enabled():
            _metrics.get_registry().counter(
                "explore.hybrid.degraded_runs"
            ).add(1)
        manifest = build_manifest(
            "hybrid-search",
            cells=[t.name for t in tables],
            wall_time_s=watch.elapsed(),
            budget=budget.as_dict() if budget is not None else None,
            truncated=True,
            stop_reason=degrade_reason,
            degraded_from="optimal",
            width=width, p_a=pa, p_b=pb, p_cin=pc,
            power_weight=power_weight, strategy="greedy",
        )
        return HybridSearchResult(
            chain=greedy.chain, p_error=greedy.p_error,
            objective=greedy.objective, exact=False,
            power_nw=(
                power_model.chain_power_nw(
                    list(greedy.chain.cells), None, pa, pb, pc)
                if power_model is not None else None
            ),
            manifest=manifest, truncated=True, stop_reason=degrade_reason,
        )

    v0, v1 = 1.0 - pc, pc
    best = max(frontier, key=lambda vec: vec.w0 * v0 + vec.w1 * v1 + vec.const)
    chain = HybridChain([tables[ci] for ci in best.choices])
    p_error = float(chain.error_probability(pa, pb, pc))
    power = (
        power_model.chain_power_nw(list(chain.cells), None, pa, pb, pc)
        if power_model is not None
        else None
    )
    objective = best.w0 * v0 + best.w1 * v1 + best.const
    manifest = build_manifest(
        "hybrid-search",
        cells=[t.name for t in tables],
        wall_time_s=watch.elapsed(),
        budget=budget.as_dict() if budget is not None else None,
        width=width, p_a=pa, p_b=pb, p_cin=pc,
        power_weight=power_weight, strategy="optimal",
    )
    log_event(_logger, "hybrid.optimal.done", width=width,
              vectors=vectors_expanded, frontier=peak_frontier,
              p_error=p_error, wall_s=manifest.wall_time_s)
    return HybridSearchResult(
        chain=chain, p_error=p_error, objective=objective,
        exact=exact, power_nw=power, manifest=manifest,
    )


def brute_force_hybrid(
    cells: Sequence[CellSpec],
    width: int,
    p_a: object = 0.5,
    p_b: object = 0.5,
    p_cin: float = 0.5,
    max_combinations: int = 500_000,
    budget: Optional[RunBudget] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 1024,
    resume: bool = False,
) -> HybridSearchResult:
    """Enumerate every cell assignment (ablation oracle for small sizes).

    Assignments are visited in deterministic ``itertools.product``
    order, so the visited-config frontier (count enumerated + best so
    far) checkpoints and resumes exactly: a resumed sweep evaluates
    precisely the configurations an uninterrupted one would have.  A
    *budget* (deadline / ``max_configs``) stops the sweep cleanly after
    the current configuration and returns the best design found so far
    flagged ``truncated=True``.
    """
    tables = [resolve_cell(c) for c in cells]
    total = len(tables) ** width
    if total > max_combinations:
        raise ExplorationError(
            f"{len(tables)}^{width} = {total} assignments exceeds "
            f"max_combinations={max_combinations}"
        )
    if checkpoint_every < 1:
        raise ExplorationError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    if resume and checkpoint_path is None:
        raise ExplorationError("resume=True requires checkpoint_path")
    pa = float_probability_vector(p_a, width, "p_a")
    pb = float_probability_vector(p_b, width, "p_b")
    pc = float(validate_probability(p_cin, "p_cin"))
    watch = StopWatch()
    fingerprint = config_fingerprint(
        kind="hybrid-brute", cells=[t.name for t in tables], width=width,
        p_a=pa, p_b=pb, p_cin=pc,
    )
    configs_done = 0
    best_assignment: Optional[Tuple[int, ...]] = None
    best_error = float("inf")
    sequence = 0
    if resume:
        saved = load_checkpoint(checkpoint_path, expect_kind="hybrid-brute",
                                expect_fingerprint=fingerprint)
        configs_done = int(saved.payload["configs_done"])  # type: ignore[arg-type]
        best_error = float(saved.payload["best_error"])  # type: ignore[arg-type]
        best = saved.payload.get("best_assignment")
        best_assignment = tuple(best) if best is not None else None  # type: ignore[arg-type]
        sequence = saved.sequence
        log_event(_logger, "hybrid.brute.resumed", configs_done=configs_done,
                  best_error=best_error, path=checkpoint_path)

    # The meter bounds *this* invocation's work; resumed progress was
    # paid for by the earlier session.
    meter = make_meter(budget)
    stop_reason: Optional[str] = None
    latest_payload: Optional[dict] = None
    since_save = 0

    def snapshot() -> dict:
        return {
            "configs_done": configs_done,
            "best_error": best_error,
            "best_assignment": (
                list(best_assignment) if best_assignment is not None else None
            ),
        }

    def flush(payload: dict) -> None:
        nonlocal sequence, since_save
        sequence += 1
        save_checkpoint(
            checkpoint_path,
            Checkpoint(kind="hybrid-brute", fingerprint=fingerprint,
                       payload=payload, sequence=sequence),
        )
        since_save = 0

    assignments: Iterator[Tuple[int, ...]] = islice(
        product(range(len(tables)), repeat=width), configs_done, None
    )
    progressed = False
    try:
        with _metrics.timed("explore.hybrid.brute_force"), \
                trace_span("explore.hybrid.brute_force",
                           width=width, combinations=total):
            for assignment in assignments:
                if progressed:
                    stop_reason = meter.stop_reason()
                    if stop_reason is not None:
                        break
                chain = [tables[i] for i in assignment]
                err = float(HybridChain(chain).error_probability(pa, pb, pc))
                if err < best_error - 1e-15:
                    best_error = err
                    best_assignment = assignment
                configs_done += 1
                progressed = True
                meter.charge(configs=1)
                latest_payload = snapshot()
                since_save += 1
                if (checkpoint_path is not None
                        and since_save >= checkpoint_every):
                    flush(latest_payload)
                _chaos.tick("hybrid.brute_force.config")
    except KeyboardInterrupt:
        if checkpoint_path is not None and latest_payload is not None:
            flush(latest_payload)
        raise
    if checkpoint_path is not None and since_save > 0 \
            and latest_payload is not None:
        flush(latest_payload)

    if best_assignment is None:
        raise ExplorationError(
            "budget exhausted before any configuration was evaluated"
        )
    truncated = configs_done < total
    if _metrics.is_enabled():
        _metrics.get_registry().counter(
            "explore.hybrid.assignments_enumerated"
        ).add(configs_done)
    manifest = build_manifest(
        "hybrid-search",
        cells=[t.name for t in tables],
        wall_time_s=watch.elapsed(),
        budget=budget.as_dict() if budget is not None else None,
        truncated=True if truncated else None,
        stop_reason=stop_reason if truncated else None,
        width=width, p_a=pa, p_b=pb, p_cin=pc, strategy="brute-force",
        configs_evaluated=configs_done,
    )
    best_chain = [tables[i] for i in best_assignment]
    return HybridSearchResult(
        chain=HybridChain(best_chain),
        p_error=best_error,
        objective=1.0 - best_error,
        exact=not truncated,
        manifest=manifest,
        truncated=truncated,
        stop_reason=stop_reason if truncated else None,
    )


class ParetoFront(Sequence[HybridSearchResult]):
    """A (possibly partial) error/power Pareto front.

    Behaves like the plain ``list`` the curve sweep used to return
    (indexing, iteration, ``len``, truthiness), plus resilience
    metadata: ``truncated=True`` means the sweep's budget expired and
    only a prefix of the requested weights was explored -- every result
    present is still a fully valid design, and the manifest records the
    weights actually swept and the stop reason.
    """

    def __init__(
        self,
        results: Sequence[HybridSearchResult],
        truncated: bool = False,
        stop_reason: Optional[str] = None,
        manifest: Optional[RunManifest] = None,
    ) -> None:
        self.results: Tuple[HybridSearchResult, ...] = tuple(results)
        self.truncated = truncated
        self.stop_reason = stop_reason
        self.manifest = manifest

    def __getitem__(self, index):  # noqa: D105 -- Sequence protocol
        return self.results[index]

    def __len__(self) -> int:
        return len(self.results)

    def __repr__(self) -> str:
        return (
            f"ParetoFront({len(self.results)} designs, "
            f"truncated={self.truncated})"
        )


def hybrid_tradeoff_curve(
    cells: Sequence[CellSpec],
    width: int,
    power_weights: Sequence[float],
    p_a: object = 0.5,
    p_b: object = 0.5,
    p_cin: float = 0.5,
    power_model: Optional[PowerModel] = None,
    budget: Optional[RunBudget] = None,
) -> ParetoFront:
    """Sweep the power weight to trace an error/power trade-off frontier.

    Each weight yields the optimal chain for the scalarised objective
    ``P(Succ) - weight * power``; collectively the distinct results
    sample the Pareto frontier of (error, power) over hybrid designs.
    Duplicate chains from adjacent weights are collapsed.

    A *budget* bounds the sweep: the deadline is checked between
    weights (after at least one), and an expired budget returns the
    partial front explored so far as a :class:`ParetoFront` with
    ``truncated=True`` -- a deadline-limited exploration degrades to a
    coarser frontier instead of failing with nothing.
    """
    if not power_weights:
        raise ExplorationError("need at least one power weight")
    model = power_model or PowerModel()
    meter = make_meter(budget)
    results: List[HybridSearchResult] = []
    seen = set()
    swept: List[float] = []
    stop_reason: Optional[str] = None
    weights = sorted(float(w) for w in power_weights)

    for weight in weights:
        if swept:
            stop_reason = meter.stop_reason()
            if stop_reason is not None:
                break
        result = optimal_hybrid(
            cells, width, p_a, p_b, p_cin,
            power_weight=weight, power_model=model,
        )
        swept.append(weight)
        _chaos.tick("hybrid.tradeoff.weight")
        key = result.chain
        if key not in seen:
            seen.add(key)
            results.append(result)
    truncated = len(swept) < len(weights)
    manifest = build_manifest(
        "pareto-front",
        cells=[str(c) for c in cells],
        budget=budget.as_dict() if budget is not None else None,
        truncated=True if truncated else None,
        stop_reason=stop_reason if truncated else None,
        width=width,
        weights_requested=weights,
        weights_swept=swept,
    )
    if truncated:
        log_event(_logger, "hybrid.tradeoff.truncated",
                  swept=len(swept), requested=len(weights),
                  reason=stop_reason)
    return ParetoFront(results, truncated=truncated,
                       stop_reason=stop_reason if truncated else None,
                       manifest=manifest)


def greedy_hybrid(
    cells: Sequence[CellSpec],
    width: int,
    p_a: object = 0.5,
    p_b: object = 0.5,
    p_cin: float = 0.5,
) -> HybridSearchResult:
    """Stage-by-stage greedy: maximise surviving success mass per stage.

    A fast heuristic ablation baseline; not optimal in general (the
    tests exhibit its gap against :func:`optimal_hybrid`).
    """
    tables = [resolve_cell(c) for c in cells]
    pa = float_probability_vector(p_a, width, "p_a")
    pb = float_probability_vector(p_b, width, "p_b")
    pc = float(validate_probability(p_cin, "p_cin"))
    v = (1.0 - pc, pc)
    chosen: List[FullAdderTruthTable] = []
    for i in range(width):
        last = i == width - 1
        best_table = None
        best_score = -1.0
        best_state = v
        for table in tables:
            if last:
                l0, l1 = _final_vector(table, pa[i], pb[i])
                score = l0 * v[0] + l1 * v[1]
                state = v
            else:
                t = _stage_matrix(table, pa[i], pb[i])
                state = (
                    t[0][0] * v[0] + t[0][1] * v[1],
                    t[1][0] * v[0] + t[1][1] * v[1],
                )
                score = state[0] + state[1]
            if score > best_score:
                best_score = score
                best_table = table
                best_state = state
        chosen.append(best_table)
        v = best_state
    chain = HybridChain(chosen)
    p_error = float(chain.error_probability(pa, pb, pc))
    manifest = build_manifest(
        "hybrid-search",
        cells=[t.name for t in tables],
        width=width, p_a=pa, p_b=pb, p_cin=pc, strategy="greedy",
    )
    return HybridSearchResult(
        chain=chain, p_error=p_error, objective=1.0 - p_error, exact=False,
        manifest=manifest,
    )
