"""Zoo engines: backends for windowed-block adder requests.

Chain-shaped zoo members (LOA and friends) are ordinary hybrid cell
chains -- every existing engine serves them.  The block/prefix members
(ACA, ETA, GDA, GeAr-style overlaps, truncated prefix graphs) carry a
:class:`~repro.core.adder_zoo.WindowedAdderSpec` in ``request.block``
and are served here, by a mirror of the distribution-engine family
built on the monotone-carry-cut DP of :mod:`repro.core.adder_zoo`:

* ``zoo-dp`` -- exact: linear-time ``P(error)`` and WCE at *any*
  width, the full error PMF to :data:`ZOO_EXACT_MAX_WIDTH` bits, the
  joint ``(D, exact)`` DP for MRED to :data:`ZOO_MRED_EXACT_MAX_WIDTH`
  bits.  Deterministic, so the persistent result cache replays it.
* ``zoo-dp-truncated`` -- the same PMF DP with deltas kept at
  :data:`~repro.engine.distribution.QUANT_BITS` significant bits
  (mass-preserving merge): bounded support at any width, ``P(error)``
  still exact, magnitude metrics flagged ``exact=False``.  MRED is not
  served (no mass-preserving joint truncation); WCE delegates to the
  always-exact interval DP.
* ``zoo-exhaustive`` -- the oracle: weighted enumeration of every
  operand pair through the bit-true functional model, width-guarded.
* ``zoo-mc`` -- seeded operand sampling through
  :func:`~repro.core.adder_zoo.windowed_add_array`, with the same
  interval conventions as ``distribution-mc``.

Engine selection walks the same ladder as every other request
(:func:`repro.engine.executor.select_engine`) over the ``width_limits``
and ``degrades_to`` registered below.  Registration happens in
:func:`repro.engine.backends.register_builtin_engines` like every other
family.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.adder_zoo import (
    WindowedAdderSpec,
    windowed_add_array,
    windowed_error_moments,
    windowed_error_pmf,
    windowed_error_probability,
    windowed_exhaustive_quality,
    windowed_joint_error_pmf,
    windowed_worst_case_error,
)
from ..core.exceptions import AnalysisError
from ..core.magnitude import relative_error_from_joint
from ..core.metrics import metrics_from_pmf, metrics_from_samples
from .distribution import (
    MC_DEFAULT_SAMPLES,
    MC_MAX_SUPPORT,
    _mean_interval,
    _quantize,
    _wilson_interval,
)
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

#: Exact full-PMF guard for block requests; matches the enumeration
#: oracle's width so every exact answer stays oracle-checkable.
ZOO_EXACT_MAX_WIDTH = 16

#: Exact joint ``(delta, exact)`` guard for block MRED.
ZOO_MRED_EXACT_MAX_WIDTH = 12

#: Truncated-support rung guard; past this Monte-Carlo answers faster.
ZOO_TRUNCATED_MAX_WIDTH = 32

#: ``zoo-mc`` width guard: operands must fit signed 64-bit lanes.
ZOO_MC_MAX_WIDTH = 62

#: Request kinds the zoo family serves.
ZOO_KINDS = (KIND_CHAIN,) + DISTRIBUTION_KINDS


def _block(request: AnalysisRequest) -> WindowedAdderSpec:
    spec = request.block
    if not isinstance(spec, WindowedAdderSpec):
        raise AnalysisError(
            "zoo engines serve block requests only; build one with "
            "AnalysisRequest.zoo('aca1:16:4', ...)"
        )
    return spec


def _zoo_result(
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


def run_zoo_dp(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """Exact monotone-carry-cut DP over the request's windowed spec.

    Raises :class:`~repro.core.exceptions.SupportLimitError` when the
    kind's DP support outgrows its guard; the router rungs exist so
    un-forced callers never see that.
    """
    spec = _block(request)
    pa, pb = request.p_a, request.p_b
    if request.kind == KIND_CHAIN:
        return _zoo_result(
            request, "zoo-dp", True,
            windowed_error_probability(spec, pa, pb),
        )
    if request.kind == KIND_WCE:
        moments = windowed_error_moments(spec, pa, pb)
        worst = windowed_worst_case_error(spec, pa, pb)
        return _zoo_result(
            request, "zoo-dp", True,
            windowed_error_probability(spec, pa, pb),
            wce=worst.wce, mse=moments.second_moment, bias=moments.mean,
        )
    if request.kind == KIND_MRED:
        joint = windowed_joint_error_pmf(spec, pa, pb)
        pmf: Dict[int, float] = {}
        for (delta, _value), prob in joint.items():
            pmf[delta] = pmf.get(delta, 0.0) + prob
        fields, error_rate = _pmf_fields(pmf, request)
        fields["mred"] = relative_error_from_joint(joint)
        return _zoo_result(request, "zoo-dp", True, error_rate, **fields)
    pmf = windowed_error_pmf(spec, pa, pb)
    fields, error_rate = _pmf_fields(pmf, request)
    return _zoo_result(request, "zoo-dp", True, error_rate, **fields)


def run_zoo_dp_truncated(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """Truncated-support cut DP: bounded support at any width.

    Same contract as ``distribution-dp-truncated``: nearby deltas merge
    (mass never drops), so ``p_error`` stays exact while magnitude
    metrics carry a bounded relative drift (``exact=False``).
    """
    if request.kind == KIND_MRED:
        raise AnalysisError(
            "zoo-dp-truncated cannot answer 'mred' (the joint "
            "(delta, exact) support has no mass-preserving truncation); "
            "use zoo-mc"
        )
    if request.kind in (KIND_CHAIN, KIND_WCE):
        # Linear-time exact DPs at any width; truncation only hurts.
        return run_zoo_dp(request, **options)
    spec = _block(request)
    pmf = windowed_error_pmf(spec, request.p_a, request.p_b,
                             quantize=_quantize)
    fields, error_rate = _pmf_fields(pmf, request)
    return _zoo_result(request, "zoo-dp-truncated", False, error_rate,
                       **fields)


def run_zoo_exhaustive(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """The oracle: weighted enumeration of every operand pair through
    the bit-true functional model."""
    spec = _block(request)
    report = windowed_exhaustive_quality(spec, request.p_a, request.p_b)
    error_rate = sum(p for d, p in report.pmf.items() if d != 0)
    if request.kind == KIND_CHAIN:
        return _zoo_result(request, "zoo-exhaustive", True, error_rate,
                           cases=report.cases)
    fields, error_rate = _pmf_fields(report.pmf, request)
    fields["bias"] = report.bias
    if request.kind == KIND_MRED:
        fields["mred"] = report.mred
    return _zoo_result(request, "zoo-exhaustive", True, error_rate,
                       cases=report.cases, **fields)


def _sample_operands(
    probs: Tuple[float, ...], samples: int, rng: np.random.Generator
) -> np.ndarray:
    values = np.zeros(samples, dtype=np.int64)
    for i, p in enumerate(probs):
        values |= (rng.random(samples) < p).astype(np.int64) << i
    return values


def run_zoo_mc(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """Seeded operand sampling through the functional model.

    ``interval`` follows ``distribution-mc``'s conventions: Wilson on
    the error rate for ``chain``/``error_distribution``, a normal
    approximation on the MED/MRED sample mean, nothing for WCE (the
    observed maximum is only a lower bound; ``exact=False`` says so).
    """
    spec = _block(request)
    samples = int(options.get("samples") or MC_DEFAULT_SAMPLES)  # type: ignore[arg-type]
    if samples < 1:
        raise AnalysisError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(int(options.get("seed", 0)))  # type: ignore[arg-type]
    a = _sample_operands(request.p_a, samples, rng)
    b = _sample_operands(request.p_b, samples, rng)
    approx = windowed_add_array(spec, a, b)
    exact_sums = a + b
    delta = approx - exact_sums
    error_rate = float((delta != 0).mean())
    if request.kind == KIND_CHAIN:
        return _zoo_result(
            request, "zoo-mc", False, error_rate,
            samples=samples,
            interval=_wilson_interval(error_rate, samples),
        )
    quality = metrics_from_samples(approx, exact_sums, request.width)
    abs_delta = np.abs(delta).astype(np.float64)
    interval: Optional[Tuple[float, float]]
    if request.kind == KIND_MRED:
        interval = _mean_interval(abs_delta / np.maximum(exact_sums, 1))
    elif request.kind == KIND_ERROR_DISTRIBUTION:
        interval = _wilson_interval(quality.error_rate, samples)
    elif request.kind == KIND_WCE:
        interval = None
    else:
        interval = _mean_interval(abs_delta)
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
    return _zoo_result(request, "zoo-mc", False, quality.error_rate,
                       **fields)


def register_zoo_engines() -> None:
    """Register the four zoo engines (idempotent)."""
    if "zoo-dp" in REGISTRY:
        return
    REGISTRY.register(EngineInfo(
        name="zoo-dp", family=FAMILY_ANALYTICAL,
        request_kinds=ZOO_KINDS, exact=True, deterministic=True,
        run=run_zoo_dp, parallel_safe=True, supports_block=True,
        cost_estimate=lambda request: (
            8.0 * request.width * min(2.0 ** request.width, 4.0e6)),
        # ``chain`` and ``wce`` have no entry: their DPs are linear-time
        # exact at any width.  ``mred`` skips the truncated rung.
        width_limits={KIND_ERROR_DISTRIBUTION: ZOO_EXACT_MAX_WIDTH,
                      KIND_MED: ZOO_EXACT_MAX_WIDTH,
                      KIND_MRED: ZOO_MRED_EXACT_MAX_WIDTH},
        degrades_to={KIND_ERROR_DISTRIBUTION: "zoo-dp-truncated",
                     KIND_MED: "zoo-dp-truncated",
                     KIND_MRED: "zoo-mc"},
        description="exact monotone-carry-cut DP over windowed block "
                    "adders: ER, error PMF, joint MRED, interval WCE",
    ))
    REGISTRY.register(EngineInfo(
        name="zoo-dp-truncated", family=FAMILY_ANALYTICAL,
        request_kinds=ZOO_KINDS, exact=False, deterministic=True,
        run=run_zoo_dp_truncated, parallel_safe=True, supports_block=True,
        cost_estimate=lambda request: 3000.0 * request.width ** 2,
        width_limits={KIND_ERROR_DISTRIBUTION: ZOO_TRUNCATED_MAX_WIDTH,
                      KIND_MED: ZOO_TRUNCATED_MAX_WIDTH},
        degrades_to={KIND_ERROR_DISTRIBUTION: "zoo-mc", KIND_MED: "zoo-mc"},
        description="cut DP with mass-preserving delta quantisation "
                    "(bounded support at any width)",
    ))
    REGISTRY.register(EngineInfo(
        name="zoo-exhaustive", family=FAMILY_SIMULATION,
        request_kinds=ZOO_KINDS, exact=True, deterministic=True,
        run=run_zoo_exhaustive, parallel_safe=True, supports_block=True,
        max_width=ZOO_EXACT_MAX_WIDTH,
        cost_estimate=lambda request: 2.0 ** (2 * request.width + 1),
        description="weighted enumeration oracle through the bit-true "
                    "windowed functional model",
    ))
    REGISTRY.register(EngineInfo(
        name="zoo-mc", family=FAMILY_SIMULATION,
        request_kinds=ZOO_KINDS, exact=False,
        run=run_zoo_mc, parallel_safe=True, supports_block=True,
        max_width=ZOO_MC_MAX_WIDTH, default_samples=MC_DEFAULT_SAMPLES,
        cost_estimate=lambda request: float(MC_DEFAULT_SAMPLES),
        description="seeded operand sampling through "
                    "windowed_add_array with Wilson/normal intervals",
    ))
