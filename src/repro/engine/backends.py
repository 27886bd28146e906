"""Built-in engine registrations.

Each runner normalises one backend's native call convention and result
shape into the :class:`~repro.engine.request.AnalysisResult` protocol.
Heavy backend modules are imported *inside* the runners (the registry
itself stays import-light); static capability constants
(``MAX_EXHAUSTIVE_WIDTH``, ``BLOCK_CASES``, ...) are read once at
registration time from their owning modules, so the registry never
duplicates a threshold.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.exceptions import AnalysisError
from ..obs import metrics as _metrics
from ..obs.tracing import trace_span
from .registry import (
    FAMILY_ANALYTICAL,
    FAMILY_SIMULATION,
    REGISTRY,
    EngineInfo,
)
from .request import (
    KIND_CHAIN,
    KIND_MULTIOP,
    AnalysisRequest,
    AnalysisResult,
)

#: Abstract cost units per recursion stage (scalar path).
_STAGE_COST = 8.0

#: NumPy dispatch overhead of a batch=1 vectorised call, in the same
#: units.  Keeps the scalar loop the default for single-point
#: requests while ``run_batch`` feeds the vectorised engine directly.
_VECTOR_OVERHEAD = 400.0

#: Cost model of the exact segment-tree path, fitted to forced
#: ``engine="transfer"`` runs on random LPAA chains (2-vCPU host: 0.22 ms
#: at width 8, 1.71 ms at 64, 4.0 ms at 128, 18.2 ms at 512; about 60
#: ``OPS_PER_SECOND`` units a stage).  Its big-int arithmetic is 2.5x
#: slower than the float recursion at width 1 and 6-16x from width 8 to
#: 512, so its estimate stays above ``recursive``'s at every width and
#: the router never picks it: it is a forced-only exact reference.
_TRANSFER_OVERHEAD = 40.0
_TRANSFER_STAGE_COST = 60.0

# Per-chain masking-exactness memo, keyed on the full stage sequence's
# truth-table rows: True iff the recursion's P(Error) is exact (not
# merely an upper bound) for that exact sequence of cells.
_MASKING_EXACT: Dict[Tuple[Tuple[Tuple[int, int], ...], ...], bool] = {}


def _chain_is_upper_bound(request: AnalysisRequest) -> bool:
    if not request.check_masking:
        return False
    from ..core.masking import chain_is_exact

    # Masking is a property of the whole chain, not of any single cell:
    # one stage's silent carry divergence only becomes a masked error if
    # the *downstream* cells absorb it, so per-cell checks miss hybrid
    # combinations.  Memoised on the full stage sequence.
    key = tuple(table.rows for table in request.cells)
    exact = _MASKING_EXACT.get(key)
    if exact is None:
        exact = chain_is_exact(list(request.cells))
        _MASKING_EXACT[key] = exact
    return not exact


def _non_finite(engine: str) -> AnalysisError:
    """The error for a non-finite engine output, raised before the clamp:
    ``max(0.0, nan)`` is ``0.0``, so clamping would silently turn NaN
    into ``p_error == 1.0``."""
    return AnalysisError(f"engine {engine!r} returned a non-finite P(Succ)")


def _chain_result(
    request: AnalysisRequest,
    p_success: float,
    engine: str,
    exact: bool,
    **extra: object,
) -> AnalysisResult:
    # Float engines can overshoot a probability by an ulp (e.g. an
    # accurate chain whose success mass sums to 1.0000000000000002,
    # leaving p_error at -2.2e-16); clamp to the unit interval so every
    # result is a probability.  The exact transfer path is unaffected:
    # its correctly-rounded values are already in [0, 1].
    if not math.isfinite(p_success):
        raise _non_finite(engine)
    p_success = min(1.0, max(0.0, p_success))
    return AnalysisResult(
        p_error=1.0 - p_success,
        p_success=p_success,
        engine=engine,
        exact=exact,
        width=request.width,
        kind=request.kind,
        cell_names=request.cell_names,
        is_upper_bound=exact and _chain_is_upper_bound(request),
        **extra,  # type: ignore[arg-type]
    )


class _GroupResults:
    """The results of one ``run_batch`` group, built per group, not per
    request.

    Every request of a group shares one cell sequence (by row
    equality), so everything of its :func:`_chain_result` except the two
    probabilities is fixed per group: ``is_upper_bound`` is decided once
    per ``check_masking`` value, and ``cell_names`` once per ``cells``
    tuple object (a renamed alias groups with its original but keeps its
    own names).  Each result is a copy of the matching template's
    fields, equal field for field to what :func:`_chain_result` builds.
    """

    def __init__(self) -> None:
        self._names: Dict[int, Tuple[str, ...]] = {}
        self._base: Dict[bool, Dict[str, object]] = {}
        self._templates: Dict[Tuple[int, bool], Dict[str, object]] = {}

    def _template(self, request: AnalysisRequest) -> Dict[str, object]:
        names = self._names.get(id(request.cells))
        if names is None:
            names = self._names[id(request.cells)] = request.cell_names
        base = self._base.get(request.check_masking)
        if base is None:
            base = self._base[request.check_masking] = vars(AnalysisResult(
                p_error=0.0, p_success=1.0, engine="vectorized", exact=True,
                width=request.width, kind=request.kind, cell_names=names,
                is_upper_bound=_chain_is_upper_bound(request),
            ))
        if base["cell_names"] == names:
            return base
        return dict(base, cell_names=names)

    def fill(
        self,
        results: list,
        chunk: Sequence[int],
        requests: Sequence[AnalysisRequest],
        p_success: object,
    ) -> None:
        """Store the answer to each of *requests*, whose success
        probabilities are *p_success*, at its *chunk* position of
        *results*."""
        values = np.asarray(p_success, dtype=np.float64)
        if not np.isfinite(values).all():
            raise _non_finite("vectorized")
        templates = self._templates
        new = object.__new__
        for i, request, p in zip(chunk, requests, values.tolist()):
            key = (id(request.cells), request.check_masking)
            template = templates.get(key)
            if template is None:
                template = templates[key] = self._template(request)
            p = min(1.0, max(0.0, p))
            result = new(AnalysisResult)
            fields = result.__dict__
            fields.update(template)
            fields["p_error"] = 1.0 - p
            fields["p_success"] = p
            results[i] = result


def run_recursive(request: AnalysisRequest, **options: object) -> AnalysisResult:
    """Scalar recursion (Algorithm 1) through the batch stage kernel."""
    cells = request.cells
    pa, pb = request.p_a, request.p_b
    if request.keep_trace:
        from ..core.recursive import analyze_chain

        native = analyze_chain(list(cells), None, list(pa), list(pb),
                               request.p_cin, keep_trace=True)
        return _chain_result(request, float(native.p_success),
                             "recursive", True,
                             trace=native.trace, raw=native)
    from ..core.vectorized import chain_success

    n = len(cells)
    # The vectorised kernel on Python floats: bit-identical to the
    # request's row in ``run_batch``.  It honours the observability
    # contract of ``core.recursive.analyze_chain`` (span + calls/stages
    # counters) so dashboards keep working whichever path served the run.
    with _metrics.timed("core.recursive.analyze_chain"), \
            trace_span("core.recursive.analyze_chain", width=n):
        p_success = chain_success(cells, pa, pb, request.p_cin)
    if _metrics.is_enabled():
        registry = _metrics.get_registry()
        registry.counter("core.recursive.calls").add(1)
        registry.counter("core.recursive.stages").add(n)
    return _chain_result(request, p_success, "recursive", True)


def run_transfer(request: AnalysisRequest, **options: object) -> AnalysisResult:
    """Segment-tree evaluation over exact transfer matrices.

    The answer is the correctly rounded exact value -- bit-identical to
    ``analyze_chain`` in its documented exact (``Fraction``) mode.
    """
    from ..core.transfer import analyze_chain_transfer

    cells = list(request.cells)
    with _metrics.timed("core.transfer.analyze_chain"), \
            trace_span("core.transfer.analyze_chain", width=len(cells)):
        p_success = analyze_chain_transfer(
            cells, None, list(request.p_a), list(request.p_b),
            request.p_cin,
        )
    return _chain_result(request, p_success, "transfer", True)


def run_vectorized(request: AnalysisRequest, **options: object) -> AnalysisResult:
    """Single-point entry of the NumPy batch engine."""
    from ..core.vectorized import analyze_batch

    p_success = analyze_batch(
        list(request.cells), None,
        np.asarray(request.p_a), np.asarray(request.p_b), request.p_cin,
        batch=1,
    )
    return _chain_result(request, float(p_success[0]), "vectorized", True)


def run_correlated(request: AnalysisRequest, **options: object) -> AnalysisResult:
    """Correlated-operand recursion (per-stage joint laws)."""
    from ..core.correlated import analyze_chain_correlated

    p_success, trace = analyze_chain_correlated(
        list(request.cells), list(request.joints or ()), request.p_cin
    )
    return _chain_result(request, float(p_success), "correlated", True,
                         trace=tuple(trace))


def run_inclusion_exclusion(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """The exponential inclusion-exclusion baseline (Table 3)."""
    from ..baselines.inclusion_exclusion import _inclusion_exclusion_impl

    report = _inclusion_exclusion_impl(
        list(request.cells), None,
        list(request.p_a), list(request.p_b), request.p_cin,
    )
    return _chain_result(request, 1.0 - report.p_error,
                         "inclusion-exclusion", True, raw=report)


def run_exhaustive(request: AnalysisRequest, **options: object) -> AnalysisResult:
    """Weighted exhaustive enumeration (budgetable, checkpointable)."""
    from ..simulation.exhaustive import (
        exhaustive_error_probability,
        exhaustive_report,
    )

    plain = (
        options.get("budget") is None
        and options.get("checkpoint_path") is None
        and options.get("progress") is None
        and not options.get("routed", False)
    )
    if plain:
        # Single-shot enumeration: no chunk boundaries, so no budget
        # checks, checkpoint flushes or chaos ticks -- same contract as
        # the original ``exhaustive_error_probability`` entry point.
        p_error = exhaustive_error_probability(
            list(request.cells), None,
            list(request.p_a), list(request.p_b), request.p_cin,
        )
        return _chain_result(
            request, 1.0 - p_error, "exhaustive", True,
            cases=1 << (2 * request.width + 1), truncated=False,
        )

    report = exhaustive_report(
        list(request.cells), None,
        list(request.p_a), list(request.p_b), request.p_cin,
        budget=options.get("budget"),
        progress=options.get("progress"),
        checkpoint_path=options.get("checkpoint_path"),
        resume=bool(options.get("resume", False)),
    )
    return _chain_result(
        request, 1.0 - report.p_error, "exhaustive", True,
        cases=report.cases, truncated=report.truncated,
        stop_reason=report.stop_reason, raw=report,
    )


def run_montecarlo(request: AnalysisRequest, **options: object) -> AnalysisResult:
    """Seeded Monte-Carlo estimation (budgetable, checkpointable)."""
    from ..simulation.montecarlo import (
        PAPER_SAMPLE_COUNT,
        simulate_error_probability,
    )

    samples = options.get("samples") or PAPER_SAMPLE_COUNT
    result = simulate_error_probability(
        list(request.cells), None,
        list(request.p_a), list(request.p_b), request.p_cin,
        samples=int(samples),  # type: ignore[arg-type]
        seed=options.get("seed", 0),  # type: ignore[arg-type]
        budget=options.get("budget"),
        progress=options.get("progress"),
        checkpoint_path=options.get("checkpoint_path"),
        resume=bool(options.get("resume", False)),
    )
    return _chain_result(
        request, 1.0 - result.p_error, "montecarlo", False,
        samples=result.samples, truncated=result.truncated,
        stop_reason=result.stop_reason,
        interval=result.wilson_interval(), raw=result,
    )


def run_multiop_exact(request: AnalysisRequest, **options: object) -> AnalysisResult:
    """Weighted enumeration over all multi-operand inputs."""
    from ..multiop.analysis import multi_operand_error_exact

    p_error = multi_operand_error_exact(
        [list(row) for row in request.operands], request.width,
        compress_cell=request.compress_cell,
        final_adder=list(request.final_adder) or None,
    )
    return AnalysisResult(
        p_error=p_error, p_success=1.0 - p_error,
        engine="multiop-exact", exact=True,
        width=request.width, kind=KIND_MULTIOP,
        cases=int(_multiop_cases(request)),
    )


def run_multiop_mc(request: AnalysisRequest, **options: object) -> AnalysisResult:
    """Monte-Carlo over the functional CSA-tree model."""
    from ..multiop.analysis import multi_operand_error_probability_mc

    samples = int(options.get("samples") or 200_000)  # type: ignore[arg-type]
    p_error = multi_operand_error_probability_mc(
        [list(row) for row in request.operands], request.width,
        compress_cell=request.compress_cell,
        final_adder=list(request.final_adder) or None,
        samples=samples, seed=options.get("seed"),  # type: ignore[arg-type]
    )
    return AnalysisResult(
        p_error=p_error, p_success=1.0 - p_error,
        engine="multiop-mc", exact=False,
        width=request.width, kind=KIND_MULTIOP, samples=samples,
    )


def _enumeration_cost(request: AnalysisRequest) -> float:
    """Cases a chain enumeration visits: ``2^(2N+1)``."""
    return 2.0 ** (2 * request.width + 1)


def _multiop_cases(request: AnalysisRequest) -> float:
    """Operand combinations the multi-operand enumerator visits."""
    return 2.0 ** (len(request.operands) * request.width)


_REGISTERED = False


def register_builtin_engines() -> None:
    """Populate :data:`~repro.engine.registry.REGISTRY` (idempotent).

    Width limits, chunking thresholds and default sample counts are read
    from the owning backend modules so the registry can never drift from
    the engines' own guards.
    """
    global _REGISTERED
    if _REGISTERED:
        return
    from ..baselines.inclusion_exclusion import MAX_IE_WIDTH
    from ..multiop.analysis import MULTIOP_EXACT_CASES
    from ..simulation.exhaustive import BLOCK_CASES, MAX_EXHAUSTIVE_WIDTH
    from ..simulation.montecarlo import PAPER_SAMPLE_COUNT

    REGISTRY.register(EngineInfo(
        name="recursive", family=FAMILY_ANALYTICAL,
        request_kinds=(KIND_CHAIN,), exact=True, deterministic=True,
        run=run_recursive, supports_trace=True,
        cost_estimate=lambda request: _STAGE_COST * request.width,
        description="paper Algorithm 1, scalar, on the batch stage kernel",
    ))
    REGISTRY.register(EngineInfo(
        name="transfer", family=FAMILY_ANALYTICAL,
        request_kinds=(KIND_CHAIN,), exact=True, deterministic=True,
        run=run_transfer,
        cost_estimate=lambda request: (
            _TRANSFER_OVERHEAD + _TRANSFER_STAGE_COST * request.width),
        description="exact segment-tree composition (forced only)",
    ))
    REGISTRY.register(EngineInfo(
        name="vectorized", family=FAMILY_ANALYTICAL,
        request_kinds=(KIND_CHAIN,), exact=True, deterministic=True,
        run=run_vectorized,
        cost_estimate=lambda request: (
            _VECTOR_OVERHEAD + 12.0 * request.width),
        description="NumPy batch recursion on the stage kernel",
    ))
    REGISTRY.register(EngineInfo(
        name="correlated", family=FAMILY_ANALYTICAL,
        request_kinds=(KIND_CHAIN,), exact=True, deterministic=True,
        run=run_correlated, supports_correlated=True,
        cost_estimate=lambda request: 60.0 * request.width,
        description="recursion under per-stage joint operand laws",
    ))
    REGISTRY.register(EngineInfo(
        name="inclusion-exclusion", family=FAMILY_ANALYTICAL,
        request_kinds=(KIND_CHAIN,), exact=True, deterministic=True,
        run=run_inclusion_exclusion, max_width=MAX_IE_WIDTH,
        cost_estimate=lambda request: (
            request.width * 2.0 ** request.width),
        description="the exponential baseline the paper beats (Table 3)",
    ))
    # The chain simulation ladder: one enumeration block, then chunked
    # (bounded memory), then sampling.
    REGISTRY.register(EngineInfo(
        name="exhaustive", family=FAMILY_SIMULATION,
        request_kinds=(KIND_CHAIN,), exact=True, deterministic=True,
        run=run_exhaustive, max_width=MAX_EXHAUSTIVE_WIDTH,
        block_cases=BLOCK_CASES, cost_estimate=_enumeration_cost,
        degrades_to={KIND_CHAIN: "chunked-exhaustive"},
        description="weighted enumeration of all 2^(2N+1) cases",
    ))
    REGISTRY.register(EngineInfo(
        name="chunked-exhaustive", family=FAMILY_SIMULATION,
        request_kinds=(KIND_CHAIN,), exact=True, deterministic=True,
        run=run_exhaustive, max_width=MAX_EXHAUSTIVE_WIDTH,
        cost_estimate=_enumeration_cost,
        degrades_to={KIND_CHAIN: "montecarlo"},
        description="the exhaustive enumerator, block by block",
    ))
    REGISTRY.register(EngineInfo(
        name="montecarlo", family=FAMILY_SIMULATION,
        request_kinds=(KIND_CHAIN,), exact=False,
        run=run_montecarlo, default_samples=PAPER_SAMPLE_COUNT,
        cost_estimate=lambda request: float(PAPER_SAMPLE_COUNT),
        description="seeded sampling estimate with Wilson intervals",
    ))
    REGISTRY.register(EngineInfo(
        name="multiop-exact", family=FAMILY_SIMULATION,
        request_kinds=(KIND_MULTIOP,), exact=True, deterministic=True,
        run=run_multiop_exact,
        block_cases=MULTIOP_EXACT_CASES, cost_estimate=_multiop_cases,
        degrades_to={KIND_MULTIOP: "multiop-mc"},
        description="weighted enumeration of the CSA tree + final adder",
    ))
    REGISTRY.register(EngineInfo(
        name="multiop-mc", family=FAMILY_SIMULATION,
        request_kinds=(KIND_MULTIOP,), exact=False,
        run=run_multiop_mc, default_samples=200_000,
        cost_estimate=lambda request: 200_000.0,
        description="Monte-Carlo over the functional CSA-tree model",
    ))
    # The error-magnitude and zoo families live in their own modules;
    # registering them here keeps "import repro.engine" the single
    # activation point.
    from .distribution import register_distribution_engines
    from .zoo import register_zoo_engines

    register_distribution_engines()
    register_zoo_engines()
    _REGISTERED = True
