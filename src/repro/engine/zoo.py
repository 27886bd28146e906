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
  and ``bias`` (the moments fold) still exact, the other magnitude
  metrics flagged ``exact=False``.  MRED is not
  served (no mass-preserving joint truncation); WCE delegates to the
  always-exact interval DP.
* ``zoo-exhaustive`` -- the oracle: weighted enumeration of every
  operand pair through the bit-true functional model
  (:func:`~repro.simulation.exhaustive.windowed_exhaustive_quality`,
  the chain oracle's enumerator without a carry-in axis),
  width-guarded.
* ``zoo-mc`` -- seeded operand sampling: the Boolean draws go straight
  to bit planes and through
  :func:`~repro.core.adder_zoo.windowed_add_planes`; its results come
  from ``distribution-mc``'s builder, intervals included.

Engine selection walks the same ladder as every other request
(:func:`repro.engine.executor.select_engine`) over the ``width_limits``
and ``degrades_to`` registered below.  Registration happens in
:func:`repro.engine.backends.register_builtin_engines` like every other
family.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.adder_zoo import (
    WindowedAdderSpec,
    windowed_add_planes,
    windowed_table,
)
from ..core.bitplanes import bits_to_planes, planes_to_values
from ..core.exceptions import AnalysisError
from ..core.magnitude import (
    fold_extremes,
    fold_moments,
    fold_sparse,
    fold_success,
)
from .distribution import (
    MC_DEFAULT_SAMPLES,
    QUANT_BITS,
    _error_free_result,
    _exhaustive_result,
    _joint_fields,
    _pmf_fields,
    _result,
    _sampled_result,
    _zero_answer,
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


def run_zoo_dp(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """Exact monotone-carry-cut DP over the request's windowed spec.

    An exact spec (``WindowedAdderSpec.is_exact``) answers ``med``,
    ``mred`` and ``error_distribution`` with exact zeros at any width,
    no fold.  Otherwise it raises
    :class:`~repro.core.exceptions.SupportLimitError` when the
    kind's DP support outgrows its guard; the router rungs exist so
    un-forced callers never see that.
    """
    if _zero_answer(request):
        return _error_free_result(request, "zoo-dp")
    table = windowed_table(_block(request), request.p_a, request.p_b)
    if request.kind == KIND_CHAIN:
        return _result(request, "zoo-dp", True, 1.0 - fold_success(table))
    if request.kind == KIND_WCE:
        moments, worst = fold_moments(table), fold_extremes(table)
        return _result(
            request, "zoo-dp", True, 1.0 - fold_success(table),
            wce=worst.wce, mse=moments.second_moment, bias=moments.mean,
        )
    if request.kind == KIND_MRED:
        fields, error_rate = _joint_fields(
            fold_sparse(table, joint=True), request)
    else:
        fields, error_rate = _pmf_fields(fold_sparse(table).as_dict(),
                                         request)
    return _result(request, "zoo-dp", True, error_rate, **fields)


def run_zoo_dp_truncated(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """Truncated-support cut DP: bounded support at any width.

    Same contract as ``distribution-dp-truncated``: nearby deltas merge
    (mass never drops), so ``p_error`` stays exact, ``bias`` comes
    exact from the moments fold, and MED/MSE/WCE carry a bounded
    relative drift (``exact=False``).
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
    table = windowed_table(_block(request), request.p_a, request.p_b)
    fields, error_rate = _pmf_fields(
        fold_sparse(table, quant_bits=QUANT_BITS).as_dict(), request)
    fields["bias"] = fold_moments(table).mean
    return _result(request, "zoo-dp-truncated", False, error_rate,
                   **fields)


def run_zoo_exhaustive(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """The oracle: weighted enumeration of every operand pair through
    the bit-true functional model."""
    from ..simulation.exhaustive import windowed_exhaustive_quality

    report = windowed_exhaustive_quality(_block(request), request.p_a,
                                         request.p_b)
    return _exhaustive_result(request, "zoo-exhaustive", report)


def _sample_operands(
    probs: Tuple[float, ...], samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Operand bit planes from N per-bit ``rng.random(samples)`` draws
    in turn (bit-major), each compared into its row of one Boolean
    matrix through one reused draw buffer."""
    bits = np.empty((len(probs), samples), dtype=bool)
    draw = np.empty(samples)
    for i, p in enumerate(probs):
        np.less(rng.random(out=draw), p, out=bits[i])
    return bits_to_planes(bits)


def run_zoo_mc(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """Seeded operand sampling through the functional model.

    The result and its intervals come from the same builder as
    ``distribution-mc``'s (:func:`~repro.engine.distribution._sampled_result`).
    """
    spec = _block(request)
    samples = int(options.get("samples") or MC_DEFAULT_SAMPLES)  # type: ignore[arg-type]
    if samples < 1:
        raise AnalysisError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(int(options.get("seed", 0)))  # type: ignore[arg-type]
    a = _sample_operands(request.p_a, samples, rng)
    b = _sample_operands(request.p_b, samples, rng)
    approx = planes_to_values(windowed_add_planes(spec, a, b), samples)
    return _sampled_result(
        request, "zoo-mc", approx,
        planes_to_values(a, samples) + planes_to_values(b, samples))


def _dp_cost(request: AnalysisRequest) -> float:
    """``zoo-dp`` work: the cut DP's support grows like ``2^width``,
    except for an exact spec's zero answer, which is linear."""
    width = request.width
    if _zero_answer(request):
        return float(width)     # one structural check per bit
    return 8.0 * width * min(2.0 ** width, 4.0e6)


def register_zoo_engines() -> None:
    """Register the four zoo engines (idempotent)."""
    if "zoo-dp" in REGISTRY:
        return
    REGISTRY.register(EngineInfo(
        name="zoo-dp", family=FAMILY_ANALYTICAL,
        request_kinds=ZOO_KINDS, exact=True, deterministic=True,
        run=run_zoo_dp, supports_block=True,
        cost_estimate=_dp_cost,
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
        run=run_zoo_dp_truncated, supports_block=True,
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
        run=run_zoo_exhaustive, supports_block=True,
        max_width=ZOO_EXACT_MAX_WIDTH,
        cost_estimate=lambda request: 2.0 ** (2 * request.width + 1),
        description="weighted enumeration oracle through the bit-true "
                    "windowed functional model",
    ))
    REGISTRY.register(EngineInfo(
        name="zoo-mc", family=FAMILY_SIMULATION,
        request_kinds=ZOO_KINDS, exact=False,
        run=run_zoo_mc, supports_block=True,
        max_width=ZOO_MC_MAX_WIDTH, default_samples=MC_DEFAULT_SAMPLES,
        cost_estimate=lambda request: float(MC_DEFAULT_SAMPLES),
        description="seeded operand sampling through "
                    "windowed_add_planes with Wilson/normal intervals",
    ))
