"""Error-magnitude engines: the distribution kinds' backend family.

The paper's engines answer one question -- word-level ``P(error)``.
This module registers the backends that answer *how wrong* the sum is,
for the :data:`~repro.engine.request.DISTRIBUTION_KINDS` request kinds
(``error_distribution`` / ``med`` / ``mred`` / ``wce``), following Wu
et al.'s block-based error statistics and Roy & Dhar's fast
mean-error-distance analysis (PAPERS.md): propagate the error-value law
``D = approx - exact = sum_i e_i 2^i`` stage by stage over the
approximate carry, ``e_i`` being each cell's local error
(:mod:`repro.core.magnitude`).

Four engines; the first, second and fourth are rungs of the engine
ladder (:func:`repro.engine.executor.select_engine`), their per-kind
``width_limits`` and ``degrades_to`` registered below:

* ``distribution-dp`` -- exact folds over the chain's carry table
  (:mod:`repro.core.magnitude`): the dense law (to
  :data:`DIST_EXACT_MAX_WIDTH` bits; MED/MSE/WCE/bias/ER come from
  array reductions over it), the sparse joint ``(D, exact)`` law for
  MRED (to :data:`MRED_EXACT_MAX_WIDTH` bits), and for the ``wce`` kind
  the moments and extremes folds, exact at *any* width.
* ``distribution-dp-truncated`` -- past the exact guard: the sparse
  fold over the ``(approximate, exact)`` carry-pair table with every
  partial delta rounded to :data:`QUANT_BITS` significant bits
  (mass-preserving, bounded support at any width).  ``P(error)`` stays
  exact (a wrong lower bit keeps the partial delta nonzero), and so
  is ``bias`` (the chain table's moments fold, linear at any width);
  MED/MSE/WCE drift by at most ``~width * 2^(1-QUANT_BITS)``
  relative, so results are flagged ``exact=False``.
* ``distribution-exhaustive`` -- the oracle: one weighted enumeration
  pass (:func:`repro.simulation.exhaustive.exhaustive_quality`)
  reporting the PMF, MRED and bias, width-guarded like every
  exhaustive path.
* ``distribution-mc`` -- seeded sampling
  (:func:`repro.simulation.montecarlo.simulate_samples` +
  :func:`repro.core.metrics.metrics_from_samples`) with a Wilson
  interval on ER and normal-approximation intervals on MED/MRED.

All results land in the protocol's error-magnitude fields
(``med``/``nmed``/``mse``/``wce``/``mred``/``bias`` and, for
``error_distribution`` requests, the full ``distribution`` PMF), so
serve, the CLI and the result cache carry them without special cases.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..core.exceptions import AnalysisError
from ..core.magnitude import (
    ErrorLaw,
    SparseLaw,
    chain_table,
    fold_extremes,
    fold_law,
    fold_moments,
    fold_sparse,
    pair_table,
    relative_error_from_joint,
)
from ..core.metrics import (
    metrics_from_law,
    metrics_from_pmf,
    metrics_from_samples,
)
from ..core.vectorized import chain_success
from ..simulation.montecarlo import wilson_interval
from .registry import (
    FAMILY_ANALYTICAL,
    FAMILY_SIMULATION,
    REGISTRY,
    EngineInfo,
)
from .request import (
    DISTRIBUTION_KINDS,
    KIND_CHAIN,
    KIND_ERROR_DISTRIBUTION,
    KIND_MED,
    KIND_MRED,
    KIND_WCE,
    AnalysisRequest,
    AnalysisResult,
)

if TYPE_CHECKING:
    from ..simulation.exhaustive import ExhaustiveQuality

#: Exact full-PMF DP guard: beyond this width the delta support can
#: outgrow ``error_pmf``'s ``max_entries`` and the router degrades to
#: the truncated-support DP.  Matches the exhaustive oracle's width so
#: every exact answer remains oracle-checkable.
DIST_EXACT_MAX_WIDTH = 16

#: Exact joint ``(delta, exact value)`` DP guard for MRED: the support
#: also scales with the ``2^(N+1)`` exact values, so the practical
#: limit sits lower than the marginal PMF's.
MRED_EXACT_MAX_WIDTH = 12

#: Truncated-support DP guard: bounded support makes the cost linear in
#: width, but past ~32 bits Monte-Carlo answers faster than the DP.
DIST_TRUNCATED_MAX_WIDTH = 32

#: Significant bits kept per partial delta by the truncated rungs.  Mass
#: is never dropped -- nearby deltas merge -- so the PMF still sums to
#: 1 and ER stays exact; magnitude metrics drift by at most
#: ``~width * 2^(1-QUANT_BITS)`` relative.
QUANT_BITS = 12

#: Default sample count of ``distribution-mc`` (smaller than the
#: paper's 1M: magnitude metrics converge on means, not tail counts).
MC_DEFAULT_SAMPLES = 200_000

#: Largest empirical support ``distribution-mc`` reports as a PMF.
MC_MAX_SUPPORT = 4096


def _chain_error_probability(request: AnalysisRequest) -> float:
    """Word-level P(error) of the request's chain (the paper's
    Algorithm 1), bit-identical to the ``recursive`` engine's."""
    p_success = chain_success(
        request.cells, request.p_a, request.p_b, request.p_cin)
    return 1.0 - min(1.0, max(0.0, p_success))


def _result(
    request: AnalysisRequest,
    engine: str,
    exact: bool,
    p_error: float,
    **fields: object,
) -> AnalysisResult:
    p_error = min(1.0, max(0.0, float(p_error)))
    return AnalysisResult(
        p_error=p_error,
        p_success=1.0 - p_error,
        engine=engine,
        exact=exact,
        width=request.width,
        kind=request.kind,
        cell_names=request.cell_names,
        **fields,  # type: ignore[arg-type]
    )


def _pmf_fields(
    pmf: Dict[int, float], request: AnalysisRequest
) -> Tuple[Dict[str, object], float]:
    """(MED/NMED/MSE/WCE/bias fields, error rate) from a delta law."""
    quality = metrics_from_pmf(pmf, request.width)
    fields: Dict[str, object] = {
        "med": quality.med,
        "nmed": quality.nmed,
        "mse": quality.mse,
        "wce": quality.wce,
        "bias": float(sum(d * p for d, p in pmf.items())),
    }
    if request.kind == KIND_ERROR_DISTRIBUTION:
        fields["distribution"] = tuple(sorted(pmf.items()))
    return fields, quality.error_rate


def _joint_fields(
    joint: SparseLaw, request: AnalysisRequest
) -> Tuple[Dict[str, object], float]:
    """:func:`_pmf_fields` plus MRED from the fold's joint
    ``(delta, exact)`` arrays: the marginal PMF is one ``np.bincount``
    and MRED one vectorised sum, no loop over the joint entries."""
    fields, error_rate = _pmf_fields(joint.marginal(), request)
    fields["mred"] = relative_error_from_joint(joint)
    return fields, error_rate


#: Kinds an error-free adder answers with exact zeros, without a fold:
#: their DP supports grow with width (``wce`` is linear already).
ZERO_KINDS = (KIND_ERROR_DISTRIBUTION, KIND_MED, KIND_MRED)


def _zero_answer(request: AnalysisRequest) -> bool:
    """The DP rung answers *request* with exact zeros, no fold."""
    return request.kind in ZERO_KINDS and request.is_error_free


def _error_free_result(
    request: AnalysisRequest, engine: str
) -> AnalysisResult:
    """The exact answer for an error-free adder: ``D = 0`` surely."""
    fields: Dict[str, object] = {
        "med": 0.0, "nmed": 0.0, "mse": 0.0, "wce": 0, "bias": 0.0,
    }
    if request.kind == KIND_MRED:
        fields["mred"] = 0.0
    if request.kind == KIND_ERROR_DISTRIBUTION:
        fields["distribution"] = ((0, 1.0),)
    return _result(request, engine, True, 0.0, **fields)


def _law_fields(
    law: ErrorLaw, request: AnalysisRequest
) -> Tuple[Dict[str, object], float]:
    """:func:`_pmf_fields` off a dense law's arrays; the
    ``distribution`` tuple is built only when the kind carries it."""
    quality = metrics_from_law(law, request.width)
    fields: Dict[str, object] = {
        "med": quality.med,
        "nmed": quality.nmed,
        "mse": quality.mse,
        "wce": quality.wce,
        "bias": float(law.deltas() @ law.probs),
    }
    if request.kind == KIND_ERROR_DISTRIBUTION:
        fields["distribution"] = tuple(zip(*law.support()))
    return fields, quality.error_rate


def run_distribution_dp(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """Exact error-magnitude DP (full PMF / joint MRED / interval WCE).

    An error-free chain (every cell accurate) answers ``med``, ``mred``
    and ``error_distribution`` with exact zeros at any width, no fold.
    Otherwise it raises
    :class:`~repro.core.exceptions.SupportLimitError` when the
    requested kind's DP support outgrows its guard -- the ladder's
    ``width_limits`` (:func:`repro.engine.executor.select_engine`) exist
    so un-forced callers never see that.
    """
    if _zero_answer(request):
        return _error_free_result(request, "distribution-dp")
    table = chain_table(list(request.cells), None, list(request.p_a),
                        list(request.p_b), request.p_cin)
    if request.kind == KIND_WCE:
        moments, worst = fold_moments(table), fold_extremes(table)
        from .backends import _chain_is_upper_bound

        return _result(
            request, "distribution-dp", True,
            _chain_error_probability(request),
            wce=worst.wce, mse=moments.second_moment, bias=moments.mean,
            is_upper_bound=_chain_is_upper_bound(request),
        )
    if request.kind == KIND_MRED:
        fields, error_rate = _joint_fields(
            fold_sparse(table, joint=True), request)
    else:
        fields, error_rate = _law_fields(fold_law(table), request)
    return _result(request, "distribution-dp", True, error_rate, **fields)


def run_distribution_dp_truncated(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """Truncated-support DP: bounded support at any width.

    The carry-pair table's partial deltas are kept at
    :data:`QUANT_BITS` significant bits, merging (never dropping)
    nearby values, so the PMF sums to 1 and ``p_error`` is still exact.
    ``bias`` is the exact E[D] from the chain table's moments fold;
    MED/MSE/WCE carry a bounded relative drift and the result is
    flagged ``exact=False``.  MRED is not served here (the joint law has
    no mass-preserving truncation); the router sends wide MRED
    questions to Monte-Carlo instead.
    """
    if request.kind == KIND_MRED:
        raise AnalysisError(
            "distribution-dp-truncated cannot answer 'mred' (the joint "
            "(delta, exact) support has no mass-preserving truncation); "
            "use distribution-mc"
        )
    if request.kind == KIND_WCE:
        # The exact interval DP is linear-time at any width; truncation
        # would only make the answer worse.
        return run_distribution_dp(request, **options)
    args = (list(request.cells), None, list(request.p_a),
            list(request.p_b), request.p_cin)
    fields, error_rate = _pmf_fields(
        fold_sparse(pair_table(*args), quant_bits=QUANT_BITS).as_dict(),
        request)
    # A sum over quantised deltas up to 2^(N+1) cancels inexactly; the
    # linear moments fold gives E[D] exactly.
    fields["bias"] = fold_moments(chain_table(*args)).mean
    return _result(request, "distribution-dp-truncated", False,
                   error_rate, **fields)


def _exhaustive_result(
    request: AnalysisRequest, engine: str, report: "ExhaustiveQuality"
) -> AnalysisResult:
    """The result of one oracle pass: ``P(error)`` and ``cases`` for a
    ``chain`` question, plus the kind's magnitude fields otherwise."""
    fields, error_rate = _pmf_fields(report.pmf, request)
    if request.kind == KIND_CHAIN:
        fields = {}
    else:
        fields["bias"] = report.bias
        if request.kind == KIND_MRED:
            fields["mred"] = report.mred
    return _result(request, engine, True, error_rate, cases=report.cases,
                   **fields)


def run_distribution_exhaustive(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """The oracle: weighted enumeration of every input combination."""
    from ..simulation.exhaustive import exhaustive_quality

    report = exhaustive_quality(
        list(request.cells), None,
        list(request.p_a), list(request.p_b), request.p_cin,
        progress=options.get("progress"),
    )
    return _exhaustive_result(request, "distribution-exhaustive", report)


def _mean_interval(
    values: np.ndarray, z: float = 1.96
) -> Tuple[float, float]:
    """Normal-approximation CI for a sample mean, clamped at 0."""
    n = values.size
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if n > 1 else 0.0
    half = z * std / math.sqrt(n)
    return (max(0.0, mean - half), mean + half)


def _sampled_result(
    request: AnalysisRequest,
    engine: str,
    approx: np.ndarray,
    exact_sums: np.ndarray,
) -> AnalysisResult:
    """The result of a sampling run from its approximate and exact sums.

    ``interval`` carries the 95% bound on the request's headline
    metric: Wilson on ER for ``chain`` and ``error_distribution``, a
    normal approximation on the MED/MRED sample mean, nothing for WCE
    (the observed maximum is only a lower bound; ``exact=False`` says
    so).
    """
    samples = int(approx.size)
    delta = approx - exact_sums
    if request.kind == KIND_CHAIN:
        error_rate = float((delta != 0).mean())
        return _result(request, engine, False, error_rate,
                       samples=samples,
                       interval=wilson_interval(error_rate, samples))
    quality = metrics_from_samples(approx, exact_sums, request.width)
    abs_delta = np.abs(delta).astype(np.float64)
    interval: Optional[Tuple[float, float]]
    if request.kind == KIND_MED:
        interval = _mean_interval(abs_delta)
    elif request.kind == KIND_MRED:
        interval = _mean_interval(abs_delta / np.maximum(exact_sums, 1))
    elif request.kind == KIND_ERROR_DISTRIBUTION:
        interval = wilson_interval(quality.error_rate, samples)
    else:
        interval = None
    fields: Dict[str, object] = {
        "med": quality.med,
        "nmed": quality.nmed,
        "mse": quality.mse,
        "wce": quality.wce,
        "mred": quality.mred,
        "bias": float(delta.mean()),
        "samples": samples,
        "interval": interval,
    }
    if request.kind == KIND_ERROR_DISTRIBUTION:
        uniques, counts = np.unique(delta, return_counts=True)
        if uniques.size <= MC_MAX_SUPPORT:
            fields["distribution"] = tuple(
                (int(d), float(c) / samples)
                for d, c in zip(uniques, counts)
            )
    return _result(request, engine, False, quality.error_rate, **fields)


def run_distribution_mc(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """Seeded sampling estimate of the error-magnitude metrics.

    The result and its intervals come from :func:`_sampled_result`.
    """
    from ..simulation.montecarlo import simulate_samples

    samples = int(options.get("samples") or MC_DEFAULT_SAMPLES)  # type: ignore[arg-type]
    approx, exact_sums = simulate_samples(
        list(request.cells), None,
        list(request.p_a), list(request.p_b), request.p_cin,
        samples=samples, seed=options.get("seed", 0),  # type: ignore[arg-type]
        progress=options.get("progress"),
    )
    return _sampled_result(request, "distribution-mc", approx, exact_sums)


def _dp_cost(request: AnalysisRequest) -> float:
    """``distribution-dp`` work in ops at the registry's 2M ops/s.

    The dense kernel's delta windows span about ``2^(w+2)`` entries,
    capped by ``max_entries``; an ``error_distribution`` answer then
    turns up to ``2^(w+1)`` of them into Python pairs.  Fitted to the
    worst LPAA 1-7 timings on a 2-vCPU Xeon: 0.6 ms at width 8, 3 ms at
    12, and at 16 12 ms for ``med`` and 66 ms for
    ``error_distribution`` (estimate: 2.2, 7 and 70 ms).  The joint
    MRED DP is far costlier per width and is not modelled here.  An
    error-free chain's zero answer is linear.
    """
    width = request.width
    if _zero_answer(request):
        return float(width)     # one structural check per bit
    return 500.0 * width + 2.0 * min(2.0 ** width, 2.0e6)


def register_distribution_engines() -> None:
    """Register the four distribution engines (idempotent)."""
    if "distribution-dp" in REGISTRY:
        return
    from ..simulation.exhaustive import MAX_EXHAUSTIVE_WIDTH

    REGISTRY.register(EngineInfo(
        name="distribution-dp", family=FAMILY_ANALYTICAL,
        request_kinds=DISTRIBUTION_KINDS, exact=True, deterministic=True,
        run=run_distribution_dp,
        cost_estimate=_dp_cost,
        # ``wce`` has no entry: the interval DP is exact at any width.
        width_limits={KIND_ERROR_DISTRIBUTION: DIST_EXACT_MAX_WIDTH,
                      KIND_MED: DIST_EXACT_MAX_WIDTH,
                      KIND_MRED: MRED_EXACT_MAX_WIDTH},
        # ``mred`` skips the truncated rung: the joint DP has no
        # mass-preserving truncation.
        degrades_to={KIND_ERROR_DISTRIBUTION: "distribution-dp-truncated",
                     KIND_MED: "distribution-dp-truncated",
                     KIND_MRED: "distribution-mc"},
        description="exact carry DP: dense error PMF, joint MRED, "
                    "interval WCE",
    ))
    REGISTRY.register(EngineInfo(
        name="distribution-dp-truncated", family=FAMILY_ANALYTICAL,
        request_kinds=DISTRIBUTION_KINDS, exact=False, deterministic=True,
        run=run_distribution_dp_truncated,
        cost_estimate=lambda request: 3000.0 * request.width ** 2,
        width_limits={KIND_ERROR_DISTRIBUTION: DIST_TRUNCATED_MAX_WIDTH,
                      KIND_MED: DIST_TRUNCATED_MAX_WIDTH},
        degrades_to={KIND_ERROR_DISTRIBUTION: "distribution-mc",
                     KIND_MED: "distribution-mc"},
        description=f"error-PMF DP at {QUANT_BITS} significant delta "
                    "bits (mass-preserving, bounded support)",
    ))
    REGISTRY.register(EngineInfo(
        name="distribution-exhaustive", family=FAMILY_SIMULATION,
        request_kinds=DISTRIBUTION_KINDS, exact=True, deterministic=True,
        run=run_distribution_exhaustive,
        max_width=MAX_EXHAUSTIVE_WIDTH,
        cost_estimate=lambda request: 2.0 ** (2 * request.width + 1),
        description="weighted enumeration oracle: PMF, MRED and bias in "
                    "one pass",
    ))
    REGISTRY.register(EngineInfo(
        name="distribution-mc", family=FAMILY_SIMULATION,
        request_kinds=DISTRIBUTION_KINDS, exact=False,
        run=run_distribution_mc,
        default_samples=MC_DEFAULT_SAMPLES,
        cost_estimate=lambda request: float(MC_DEFAULT_SAMPLES),
        description="seeded sampling: Wilson-bounded ER, "
                    "normal-approximation MED/MRED intervals",
    ))
