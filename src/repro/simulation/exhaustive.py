"""Exhaustive simulation of approximate adders (the paper's baseline).

The paper validates its analytical numbers against exhaustive
simulation: all ``2^(2N+1)`` combinations of two N-bit operands and the
carry-in (paper Table 6's "Finite" row uses this for equiprobable
inputs).  This module implements that baseline with two refinements:

* :func:`exhaustive_error_probability` enumerates *weighted* cases, so
  it is exact for **any** per-bit input probabilities, not only the
  equiprobable case -- this is the strongest available oracle for the
  analytical engine and is what the paper's 100%-match claim is checked
  against;
* :func:`exhaustive_error_count` reproduces the paper's plain
  equiprobable count (errors / total cases);
* :func:`exhaustive_quality` additionally bins the numeric error and
  accumulates MRED and bias (:func:`exhaustive_error_pmf` is its PMF),
  cross-validating :mod:`repro.core.magnitude`;
* :func:`exhaustive_report` wraps the weighted oracle in an
  :class:`ExhaustiveResult` carrying a provenance manifest;
* :func:`windowed_exhaustive_quality` is the same quality pass over the
  ``2^(2N)`` operand pairs of a zoo block adder
  (:class:`~repro.core.adder_zoo.WindowedAdderSpec`, carry-in 0).

Every one of them is a fold over one weighted-case enumerator
(:class:`_Cases`), which resolves the adder, validates the
probabilities, builds the per-case weights and reports progress and
metrics once.  Cost is exponential in N (that is the paper's Fig. 1
point); the functions refuse absurd widths instead of hanging.
Enumeration runs in fixed-size blocks, so memory stays bounded and long
runs report progress instead of going dark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.adder_zoo import WindowedAdderSpec, windowed_add_array
from ..core.exceptions import AnalysisError
from ..core.probability import float_probability_vector
from ..core.recursive import CellSpec, resolve_chain
from ..core.types import Probability, validate_probability
from ..obs import metrics as _metrics
from ..obs.log import Progress, ProgressCallback, get_logger, log_event
from ..obs.provenance import RunManifest, StopWatch, build_manifest
from ..obs.tracing import trace_span
from ..runtime import chaos as _chaos
from ..runtime.budget import STOP_MAX_CASES, BudgetMeter, RunBudget, make_meter
from ..runtime.checkpoint import (
    Checkpoint,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from .functional import ripple_add_array

#: Widths above this would enumerate > 2^33 cases; refuse rather than hang.
MAX_EXHAUSTIVE_WIDTH = 16

#: Target cases per enumeration block (bounds peak memory per chunk).
BLOCK_CASES = 1 << 21

_logger = get_logger("simulation.exhaustive")

#: A fold consumes ``(delta, exact, weights)`` of one block, flat in
#: case order.
_Fold = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


def _value_weights(values: np.ndarray, probs: Sequence[float]) -> np.ndarray:
    """Probability weight of each operand value under per-bit
    one-probabilities *probs* (bit 0 first)."""
    weights = np.ones(values.shape, dtype=np.float64)
    for i, p in enumerate(probs):
        bit = (values >> i) & 1
        weights *= np.where(bit == 1, p, 1.0 - p)
    return weights


class _Cases:
    """Every input case of one adder, weighted by its input probabilities.

    The one enumerator behind every exhaustive answer.  *add* maps
    operand arrays ``(a, b, cin)`` to approximate sums; a chain has a
    carry-in axis (``2^(2N+1)`` cases, *p_cin* given), a block adder
    has none (``2^(2N)`` cases, *p_cin* ``None``, ``cin`` is 0).
    Blocks split along the *a* axis and keep the full grid's case
    order (``a``, then ``b``, then ``cin``), so a resumed run continues
    from its block cursor and visits every case exactly once.
    """

    def __init__(
        self,
        add: Callable[[np.ndarray, np.ndarray, object], np.ndarray],
        width: int,
        p_a: Union[Probability, Sequence[Probability]],
        p_b: Union[Probability, Sequence[Probability]],
        p_cin: Optional[Probability],
    ) -> None:
        carry_bits = 0 if p_cin is None else 1
        if width > MAX_EXHAUSTIVE_WIDTH:
            raise AnalysisError(
                f"exhaustive enumeration of a {width}-bit adder would visit "
                f"2^{2 * width + carry_bits} cases; use the analytical "
                "engine or the Monte-Carlo simulator instead"
            )
        self.add = add
        self.width = width
        self.p_a = float_probability_vector(p_a, width, "p_a")
        self.p_b = float_probability_vector(p_b, width, "p_b")
        self.p_cin = (None if p_cin is None
                      else float(validate_probability(p_cin, "p_cin")))
        self.total = 1 << (2 * width + carry_bits)
        self._values = np.arange(1 << width, dtype=np.int64)
        self._weights_a = _value_weights(self._values, self.p_a)
        self._weights_b = _value_weights(self._values, self.p_b)

    def step(self, budget: Optional[RunBudget] = None) -> int:
        """``a``-axis stride per block, clamped to a budget's memory hint."""
        per_a = self.total >> self.width
        step = max(1, BLOCK_CASES // per_a)
        if budget is not None and budget.memory_hint_mb is not None:
            # ~5 int64 arrays (a, b, cin, approx, exact) alive per case.
            max_cases = max(per_a, int(budget.memory_hint_mb * 1_000_000 / 40))
            step = max(1, min(step, max_cases // per_a))
        return step

    def _block(
        self, start: int, step: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(delta, exact, weights)`` of the cases with ``a`` in
        ``[start, start + step)``."""
        axes = [self._values[start:start + step], self._values]
        weights = (self._weights_a[start:start + step][:, None]
                   * self._weights_b[None, :])
        if self.p_cin is not None:
            axes.append(np.array([0, 1], dtype=np.int64))
            weights = (weights[:, :, None]
                       * np.array([1.0 - self.p_cin, self.p_cin]))
        grid = [axis.ravel() for axis in np.meshgrid(*axes, indexing="ij")]
        a, b = grid[0], grid[1]
        cin = grid[2] if self.p_cin is not None else 0
        exact = a + b + cin
        return self.add(a, b, cin) - exact, exact, weights.ravel()

    def run(
        self,
        span: str,
        fold: _Fold,
        progress: Optional[ProgressCallback] = None,
        *,
        meter: Optional[BudgetMeter] = None,
        step: Optional[int] = None,
        start_a: int = 0,
        done: int = 0,
        after_block: Optional[Callable[[int, int], None]] = None,
    ) -> Tuple[int, Optional[str]]:
        """Feed *fold* every block from the ``a`` cursor *start_a* on.

        *meter* is checked before each block after the first one this
        call visits; *after_block* gets ``(next a cursor, cases visited)``
        once a block is folded.  *done* counts cases an earlier run
        already visited.  Returns ``(cases visited, stop reason)``; the
        reason is ``None`` unless the meter stopped the run.
        """
        if step is None:
            step = self.step()
        reporter = Progress(self.total, "exhaustive.cases",
                            callback=progress, logger=_logger)
        if done:
            reporter.update(done)
        visited = done
        stop_reason: Optional[str] = None
        progressed = False
        with _metrics.timed("simulation.exhaustive.enumerate"), \
                trace_span(span, width=self.width, cases=self.total):
            for start in range(start_a, 1 << self.width, step):
                if progressed and meter is not None:
                    stop_reason = meter.stop_reason()
                    if stop_reason is not None:
                        break
                delta, exact, weights = self._block(start, step)
                fold(delta, exact, weights)
                visited += delta.size
                progressed = True
                if meter is not None:
                    meter.charge(cases=delta.size)
                reporter.update(delta.size)
                if after_block is not None:
                    after_block(start + step, visited)
        reporter.finish()
        if _metrics.is_enabled():
            _metrics.get_registry().counter(
                "simulation.exhaustive.cases"
            ).add(visited)
        return visited, stop_reason


def _chain_cases(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int],
    p_a: Union[Probability, Sequence[Probability]],
    p_b: Union[Probability, Sequence[Probability]],
    p_cin: Probability,
) -> _Cases:
    cells = resolve_chain(cell, width)
    return _Cases(lambda a, b, cin: ripple_add_array(cells, a, b, cin),
                  len(cells), p_a, p_b, p_cin)


@dataclass(frozen=True)
class ExhaustiveResult:
    """Weighted exhaustive-enumeration outcome with provenance.

    ``cases`` counts the input combinations actually visited.  For a
    complete run it equals ``total_cases`` (= ``2^(2*width+1)``); a run
    stopped early by its budget has ``truncated=True`` and ``p_error``
    is then a *lower bound* (the error mass of the visited prefix).
    """

    p_error: float
    width: int
    cases: int
    manifest: Optional[RunManifest] = None
    truncated: bool = False
    stop_reason: Optional[str] = None
    total_cases: Optional[int] = None

    @property
    def p_success(self) -> float:
        """``1 - p_error``."""
        return 1.0 - self.p_error


def exhaustive_error_probability(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    progress: Optional[ProgressCallback] = None,
) -> float:
    """Exact ``P(output != a + b + cin)`` by weighted enumeration.

    Visits every input combination once and accumulates the probability
    mass of the erroneous ones.  Exact for arbitrary per-bit input
    probabilities; exponential in *width*.
    """
    mass = 0.0

    def fold(delta: np.ndarray, exact: np.ndarray,
             weights: np.ndarray) -> None:
        nonlocal mass
        mass += float(weights[delta != 0].sum())

    _chain_cases(cell, width, p_a, p_b, p_cin).run(
        "simulation.exhaustive.enumerate", fold, progress)
    return mass


def exhaustive_report(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    progress: Optional[ProgressCallback] = None,
    budget: Optional[RunBudget] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 1,
    resume: bool = False,
) -> ExhaustiveResult:
    """:func:`exhaustive_error_probability` plus a provenance manifest.

    This is the *resilient* enumeration entry point: it accepts a
    :class:`repro.runtime.RunBudget` (deadline / ``max_cases``, checked
    at block boundaries after at least one block) and a checkpoint path
    (block cursor + accumulated error mass, written atomically every
    *checkpoint_every* blocks).  ``resume=True`` continues from the
    first unvisited block and yields exactly the same mass as an
    uninterrupted run -- blocks partition the grid, and every case is
    visited exactly once.  Only a run with a budget or a checkpoint has
    block boundaries for the chaos shim (:mod:`repro.runtime.chaos`) to
    act on; a plain enumeration, forced or routed, runs straight
    through.
    """
    watch = StopWatch()
    resilient = budget is not None or checkpoint_path is not None
    cells = resolve_chain(cell, width)
    cases = _chain_cases(cells, None, p_a, p_b, p_cin)
    if checkpoint_every < 1:
        raise AnalysisError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    if resume and checkpoint_path is None:
        raise AnalysisError("resume=True requires checkpoint_path")
    names = [t.name for t in cells]
    pa, pb, pc = cases.p_a, cases.p_b, cases.p_cin

    step = cases.step(budget)
    fingerprint = config_fingerprint(
        kind="exhaustive", cells=names,
        p_a=pa, p_b=pb, p_cin=pc, step=step,
    )
    start_a = 0
    mass = 0.0
    cases_done = 0
    sequence = 0
    if resume:
        saved = load_checkpoint(checkpoint_path, expect_kind="exhaustive",
                                expect_fingerprint=fingerprint)
        start_a = int(saved.payload["next_a_start"])  # type: ignore[arg-type]
        mass = float(saved.payload["mass"])  # type: ignore[arg-type]
        cases_done = int(saved.payload["cases_done"])  # type: ignore[arg-type]
        sequence = saved.sequence
        log_event(_logger, "exhaustive.resumed", next_a_start=start_a,
                  cases_done=cases_done, path=checkpoint_path)

    latest_payload: Optional[dict] = None
    blocks_since_save = 0

    def flush(payload: dict) -> None:
        nonlocal sequence, blocks_since_save
        sequence += 1
        save_checkpoint(
            checkpoint_path,
            Checkpoint(kind="exhaustive", fingerprint=fingerprint,
                       payload=payload, sequence=sequence),
        )
        blocks_since_save = 0

    def fold(delta: np.ndarray, exact: np.ndarray,
             weights: np.ndarray) -> None:
        nonlocal mass
        mass += float(weights[delta != 0].sum())

    def after_block(next_a_start: int, visited: int) -> None:
        nonlocal latest_payload, blocks_since_save
        latest_payload = {
            "next_a_start": next_a_start,
            "mass": mass,
            "cases_done": visited,
        }
        blocks_since_save += 1
        if (checkpoint_path is not None
                and blocks_since_save >= checkpoint_every):
            flush(latest_payload)
        if resilient:
            _chaos.tick("exhaustive.block")

    try:
        cases_done, stop_reason = cases.run(
            "simulation.exhaustive.report", fold, progress,
            meter=make_meter(budget), step=step, start_a=start_a,
            done=cases_done, after_block=after_block,
        )
    except KeyboardInterrupt:
        if checkpoint_path is not None and latest_payload is not None:
            flush(latest_payload)
        raise
    if checkpoint_path is not None and blocks_since_save > 0 \
            and latest_payload is not None:
        flush(latest_payload)

    total_cases = cases.total
    truncated = cases_done < total_cases
    if truncated and stop_reason is None:
        stop_reason = STOP_MAX_CASES
    manifest = build_manifest(
        "exhaustive",
        samples=cases_done,
        cells=names,
        wall_time_s=watch.elapsed(),
        budget=budget.as_dict() if budget is not None else None,
        truncated=True if truncated else None,
        stop_reason=stop_reason if truncated else None,
        p_a=pa, p_b=pb, p_cin=pc,
        **({"total_cases": total_cases} if truncated else {}),
    )
    return ExhaustiveResult(
        p_error=mass, width=cases.width, cases=cases_done, manifest=manifest,
        truncated=truncated, stop_reason=stop_reason if truncated else None,
        total_cases=total_cases,
    )


def exhaustive_error_count(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> Tuple[int, int]:
    """Count erroneous cases over all equiprobable inputs.

    Returns ``(errors, total)`` with ``total = 2^(2*width+1)`` -- the
    paper's Table 6 "No. of Simulation Cases" for the finite scenario.
    """
    cases = _chain_cases(cell, width, 0.5, 0.5, 0.5)
    errors = 0

    def fold(delta: np.ndarray, exact: np.ndarray,
             weights: np.ndarray) -> None:
        nonlocal errors
        errors += int((delta != 0).sum())

    cases.run("simulation.exhaustive.count", fold, progress)
    return errors, cases.total


@dataclass(frozen=True)
class ExhaustiveQuality:
    """Everything one weighted enumeration pass can report at once.

    ``pmf`` is the exact error-delta law (as
    :func:`exhaustive_error_pmf`), ``mred`` the exact mean relative
    error distance ``E[|D| / max(exact, 1)]`` and ``bias`` the exact
    signed mean error ``E[D]`` -- the two quantities the marginal PMF
    alone cannot (MRED) or should not (re-derive) provide.
    """

    pmf: Dict[int, float]
    mred: float
    bias: float
    width: int
    cases: int


def _quality(cases: _Cases, span: str,
             progress: Optional[ProgressCallback]) -> ExhaustiveQuality:
    """The quality fold: each block's PMF is binned with one
    ``np.bincount`` over ``delta - delta.min()`` (no sort; each bin sums
    its cases in case order), not one masked sum per delta."""
    pmf: Dict[int, float] = {}
    mred = 0.0
    bias = 0.0

    def fold(delta: np.ndarray, exact: np.ndarray,
             weights: np.ndarray) -> None:
        nonlocal mred, bias
        low = int(delta.min())
        sums = np.bincount(delta - low, weights=weights)
        for offset in np.flatnonzero(sums > 0.0).tolist():
            d = low + offset
            pmf[d] = pmf.get(d, 0.0) + float(sums[offset])
        abs_delta = np.abs(delta).astype(np.float64)
        mred += float((weights * abs_delta / np.maximum(exact, 1)).sum())
        bias += float((weights * delta).sum())

    cases.run(span, fold, progress)
    return ExhaustiveQuality(
        pmf={d: m for d, m in sorted(pmf.items()) if m > 0.0},
        mred=mred, bias=bias, width=cases.width, cases=cases.total,
    )


def exhaustive_error_pmf(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    progress: Optional[ProgressCallback] = None,
) -> Dict[int, float]:
    """Exact PMF of ``approx - exact`` by weighted enumeration.

    The ``pmf`` of :func:`exhaustive_quality`.  Cross-validates :func:`repro.core.magnitude.error_pmf` (which
    computes the same distribution in polynomial time).
    """
    return _quality(_chain_cases(cell, width, p_a, p_b, p_cin),
                    "simulation.exhaustive.pmf", progress).pmf


def exhaustive_quality(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    progress: Optional[ProgressCallback] = None,
) -> ExhaustiveQuality:
    """Exact error-delta PMF *plus* MRED and bias in one enumeration.

    The strongest oracle for the engine's distribution kinds: one pass
    over all ``2^(2N+1)`` cases accumulates the error law and, case by
    case, the relative error against the exact sum -- which the
    marginal PMF cannot recover (MRED conditions on the exact value).
    """
    return _quality(_chain_cases(cell, width, p_a, p_b, p_cin),
                    "simulation.exhaustive.quality", progress)


def windowed_exhaustive_quality(
    spec: WindowedAdderSpec,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
) -> ExhaustiveQuality:
    """The zoo's oracle: :func:`exhaustive_quality` of a block adder.

    Enumerates all ``2^(2N)`` operand pairs (carry-in 0) through
    :func:`~repro.core.adder_zoo.windowed_add_array`; width-guarded at
    :data:`MAX_EXHAUSTIVE_WIDTH`.  The cut DPs of
    :mod:`repro.core.adder_zoo` match it bit-for-bit at dyadic operand
    probabilities.
    """
    cases = _Cases(lambda a, b, cin: windowed_add_array(spec, a, b),
                   spec.width, p_a, p_b, None)
    return _quality(cases, "simulation.exhaustive.windowed", None)
