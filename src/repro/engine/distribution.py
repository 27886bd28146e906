"""Error-magnitude engines: one ladder over two adder shapes.

The paper's engines answer one question -- word-level ``P(error)``.
This module registers the backends that answer *how wrong* the sum is,
for the :data:`~repro.engine.request.DISTRIBUTION_KINDS` request kinds
(``error_distribution`` / ``med`` / ``mred`` / ``wce``), following Wu
et al.'s block-based error statistics and Roy & Dhar's fast
mean-error-distance analysis (PAPERS.md): propagate the error-value law
``D = approx - exact = sum_i e_i 2^i`` stage by stage over the
approximate carry, ``e_i`` being each stage's local error
(:mod:`repro.core.magnitude`).

Both adder shapes compile to that one carry automaton: a cell chain
(``request.cells``) through :func:`~repro.core.magnitude.chain_table`,
a windowed block (ACA, ETA, GDA, GeAr, truncated prefix graphs; a
:class:`~repro.core.adder_zoo.WindowedAdderSpec` in ``request.block``)
through :func:`~repro.core.adder_zoo.windowed_table`.  So there is one
ladder of four rungs, written once and registered under two name
prefixes -- ``distribution-*`` for chains, ``zoo-*`` for blocks (which
also answer the plain ``chain`` kind).  What differs by shape lives in
one private :class:`_Shape` record per shape:

* ``dp`` -- exact folds over the carry table.  The scalars of ``med``,
  ``mred`` and ``error_distribution`` come from four linear folds:
  :func:`~repro.core.magnitude.fold_med` and
  :func:`~repro.core.magnitude.fold_nonzero` over the output-difference
  table, the moments and extremes over the carry table; ``mred`` adds
  the bracket of :func:`~repro.core.magnitude.fold_mred` over the
  output-difference table (its midpoint, ``exact`` while the bracket
  is within :data:`MRED_EXACT_RTOL` relative).  The PMF of
  ``error_distribution`` is the dense or sparse law fold (to
  :data:`DIST_EXACT_MAX_WIDTH` bits); every other kind (and a block's
  ``chain``) reads only linear folds, exact at *any* width.  An
  error-free adder answers ``med``, ``mred`` and
  ``error_distribution`` with exact zeros at any width, no fold.
* ``dp-truncated`` -- the same runner past the PMF guard, differing
  only in the ``error_distribution`` PMF: the sparse fold of the
  output-difference table with every partial delta rounded to
  :data:`QUANT_BITS` significant bits (mass-preserving, bounded support
  at any width).  Every scalar is the exact DP's; the PMF's deltas
  drift by at most ``~width * 2^(1-QUANT_BITS)`` relative, so results
  are flagged ``exact=False``.
* ``exhaustive`` -- the oracle: one weighted enumeration pass
  (:func:`~repro.simulation.exhaustive.exhaustive_quality` /
  :func:`~repro.simulation.exhaustive.windowed_exhaustive_quality`)
  reporting the PMF, MRED and bias, width-guarded like every
  exhaustive path.
* ``mc`` -- seeded sampling through the bit-true functional model with
  a Wilson interval on ER and normal-approximation intervals on
  MED/MRED, to :data:`MC_MAX_WIDTH` bits.

Engine selection (:func:`repro.engine.executor.select_engine`) walks the
``width_limits`` and ``degrades_to`` registered below.  All results land
in the protocol's error-magnitude fields (``med``/``nmed``/``mse``/
``wce``/``mred``/``bias`` and, for ``error_distribution`` requests, the
full ``distribution`` PMF), so serve, the CLI and the result cache carry
them without special cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.adder_zoo import (
    WindowedAdderSpec,
    windowed_add_planes,
    windowed_table,
)
from ..core.bitplanes import bernoulli_planes, planes_to_values
from ..core.exceptions import AnalysisError
from ..core.magnitude import (
    CarryTable,
    ErrorPMF,
    chain_table,
    fold_extremes,
    fold_law,
    fold_med,
    fold_moments,
    fold_mred,
    fold_sparse,
    fold_nonzero,
    pair_form,
)
from ..core.metrics import (
    max_exact_output,
    metrics_from_pmf,
    metrics_from_errors,
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

#: Truncated-support DP guard: bounded support makes the cost linear in
#: width, but past ~32 bits Monte-Carlo answers faster than the DP.
DIST_TRUNCATED_MAX_WIDTH = 32

#: Sampling rungs' width guard: sampled sums are int64 words, so the
#: operands hold at most 62 bits.  A wider ``error_distribution``
#: question has no rung left and the router refuses it with a
#: ``SupportLimitError``.
MC_MAX_WIDTH = 62

#: Significant bits kept per partial delta by the truncated rungs' PMF.
#: Mass is never dropped -- nearby deltas merge -- so the PMF still sums
#: to 1 and its zero mass stays exact; magnitude metrics read off it
#: drift by at most ``~width * 2^(1-QUANT_BITS)`` relative.
QUANT_BITS = 12

#: Widest relative bracket from
#: :func:`~repro.core.magnitude.fold_mred` that an exact rung reports as
#: ``exact=True``; the default series stays below ``2^-42``.
MRED_EXACT_RTOL = 1e-12

#: Default sample count of the ``mc`` rungs (smaller than the
#: paper's 1M: magnitude metrics converge on means, not tail counts).
MC_DEFAULT_SAMPLES = 200_000

#: Largest empirical support an ``mc`` rung reports as a PMF.
MC_MAX_SUPPORT = 4096


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
        exact=bool(exact),
        width=request.width,
        kind=request.kind,
        cell_names=request.cell_names,
        **fields,  # type: ignore[arg-type]
    )


_Fields = Tuple[Dict[str, object], float]


def _pmf_fields(pmf: Dict[int, float], request: AnalysisRequest) -> _Fields:
    """(MED/NMED/MSE/WCE/bias fields, error rate) from a delta law in
    ascending delta order."""
    quality = metrics_from_pmf(pmf, request.width)
    fields: Dict[str, object] = {
        "med": quality.med,
        "nmed": quality.nmed,
        "mse": quality.mse,
        "wce": quality.wce,
        "bias": float(sum(d * p for d, p in pmf.items())),
    }
    if request.kind == KIND_ERROR_DISTRIBUTION:
        fields["distribution"] = ErrorPMF(list(pmf), list(pmf.values()))
    return fields, quality.error_rate


#: Kinds an error-free adder answers with exact zeros, without a fold.
ZERO_KINDS = (KIND_ERROR_DISTRIBUTION, KIND_MED, KIND_MRED)


def _zero_answer(request: AnalysisRequest) -> bool:
    """The DP rung answers *request* with exact zeros, no fold."""
    return request.kind in ZERO_KINDS and request.is_error_free


#: The law of an error-free adder's ``D``.
_ZERO_PMF = ErrorPMF([0], [1.0])


def _error_free_result(
    request: AnalysisRequest, engine: str, exact: bool
) -> AnalysisResult:
    """The answer for an error-free adder: ``D = 0`` surely."""
    fields: Dict[str, object] = {
        "med": 0.0, "nmed": 0.0, "mse": 0.0, "wce": 0, "bias": 0.0,
    }
    if request.kind == KIND_MRED:
        fields["mred"] = 0.0
    if request.kind == KIND_ERROR_DISTRIBUTION:
        fields["distribution"] = _ZERO_PMF
    return _result(request, engine, exact, 0.0, **fields)


def _linear_fields(
    table: CarryTable, difference: CarryTable, request: AnalysisRequest
) -> _Fields:
    """(MED/NMED/MSE/WCE/bias fields, error rate) from four linear
    folds: MED and the error rate over the output-difference table, the
    moments and the reachable extremes over the carry table."""
    med = fold_med(difference)
    moments, worst = fold_moments(table), fold_extremes(table)
    fields: Dict[str, object] = {
        "med": med,
        "nmed": med / max_exact_output(request.width),
        "mse": moments.second_moment,
        "wce": worst.wce,
        "bias": moments.mean,
    }
    return fields, fold_nonzero(difference)


@dataclass(frozen=True)
class _Shape:
    """What the four rungs need to know about one adder shape."""

    prefix: str                     # engine names are ``<prefix>-<rung>``
    block: bool                     # serves ``request.block`` requests
    kinds: Tuple[str, ...]
    #: The carry automaton the exact folds run over.
    table: Callable[[AnalysisRequest], CarryTable]
    #: Its output-difference form (every ``d`` in {-1, 0, 1}), read by
    #: ``fold_med``, ``fold_mred``, ``fold_nonzero`` and the truncated
    #: fold.
    difference: Callable[[CarryTable], CarryTable]
    #: The exact PMF over ``table``.
    pmf: Callable[[CarryTable], ErrorPMF]
    #: (``p_error``, extra fields) for the linear-time kinds.
    p_error: Callable[[AnalysisRequest, CarryTable],
                      Tuple[float, Dict[str, object]]]
    #: Seeded ``(approx, exact)`` sums: (request, samples, options).
    sample: Callable[[AnalysisRequest, int, Mapping[str, object]],
                     Tuple[np.ndarray, np.ndarray]]
    #: The enumeration oracle: (request, progress callback).
    oracle: Callable[[AnalysisRequest, object], "ExhaustiveQuality"]
    dp_cost: Callable[[AnalysisRequest], float]

    @property
    def mc(self) -> str:
        """The sampling rung's engine name."""
        return f"{self.prefix}-mc"


def _run_dp(request: AnalysisRequest, truncated: bool) -> AnalysisResult:
    """Both ``dp`` rungs: every scalar from the exact folds; only the
    ``error_distribution`` PMF's fold differs by rung."""
    shape = _shape(request)
    engine = f"{shape.prefix}-dp" + ("-truncated" if truncated else "")
    exact = not truncated
    if _zero_answer(request):
        return _error_free_result(request, engine, exact)
    table = shape.table(request)
    if request.kind in (KIND_MED, KIND_MRED, KIND_ERROR_DISTRIBUTION):
        difference = shape.difference(table)
        fields, error_rate = _linear_fields(table, difference, request)
        if request.kind == KIND_MRED:
            lo, hi = fold_mred(difference)
            fields["mred"] = (lo + hi) / 2
            exact = exact and hi - lo <= MRED_EXACT_RTOL * hi
        if request.kind == KIND_ERROR_DISTRIBUTION:
            fields["distribution"] = (_sparse_pmf(difference, QUANT_BITS)
                                      if truncated else shape.pmf(table))
        return _result(request, engine, exact, error_rate, **fields)
    p_error, fields = shape.p_error(request, table)
    if request.kind == KIND_WCE:
        moments, worst = fold_moments(table), fold_extremes(table)
        fields.update(wce=worst.wce, mse=moments.second_moment,
                      bias=moments.mean)
    return _result(request, engine, exact, p_error, **fields)


def run_distribution_dp(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """The exact DP rung: linear-fold MED/MRED/WCE and the full PMF.

    Forced past the ladder's ``width_limits``, the PMF folds raise
    :class:`~repro.core.exceptions.SupportLimitError`."""
    return _run_dp(request, truncated=False)


def run_distribution_dp_truncated(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """The exact DP rung with a bounded-support PMF, at any width.

    The PMF keeps :data:`QUANT_BITS` significant bits per delta, so the
    answer is flagged ``exact=False``; every scalar is the exact
    rung's."""
    return _run_dp(request, truncated=True)


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
    shape = _shape(request)
    report = shape.oracle(request, options.get("progress"))
    return _exhaustive_result(request, f"{shape.prefix}-exhaustive",
                              report)


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
    so).  ``delta``, ``|delta|`` and ``|delta| / max(exact, 1)`` are
    each computed once; every field and interval reads off them.
    """
    samples = int(approx.size)
    delta = approx - exact_sums
    if request.kind == KIND_CHAIN:
        error_rate = float((delta != 0).mean())
        return _result(request, engine, False, error_rate,
                       samples=samples,
                       interval=wilson_interval(error_rate, samples))
    abs_delta = np.abs(delta)
    relative = abs_delta / np.maximum(exact_sums, 1)
    quality = metrics_from_errors(delta, abs_delta, relative, request.width)
    interval: Optional[Tuple[float, float]]
    if request.kind == KIND_MED:
        interval = _mean_interval(abs_delta.astype(np.float64))
    elif request.kind == KIND_MRED:
        interval = _mean_interval(relative)
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
            fields["distribution"] = ErrorPMF(uniques, counts / samples)
    return _result(request, engine, False, quality.error_rate, **fields)


def run_distribution_mc(
    request: AnalysisRequest, **options: object
) -> AnalysisResult:
    """Seeded sampling estimate of the error-magnitude metrics.

    The result and its intervals come from :func:`_sampled_result`.
    """
    shape = _shape(request)
    samples = int(options.get("samples") or MC_DEFAULT_SAMPLES)  # type: ignore[arg-type]
    approx, exact_sums = shape.sample(request, samples, options)
    return _sampled_result(request, shape.mc, approx, exact_sums)


# -- cell chains ------------------------------------------------------


def _chain_args(request: AnalysisRequest) -> tuple:
    return (list(request.cells), None, list(request.p_a),
            list(request.p_b), request.p_cin)


def _chain_p_error(
    request: AnalysisRequest, table: CarryTable
) -> Tuple[float, Dict[str, object]]:
    """Word-level P(error) of the chain (the paper's Algorithm 1),
    bit-identical to the ``recursive`` engine's and flagged an upper
    bound where the chain masks errors."""
    from .backends import _chain_is_upper_bound

    p_success = chain_success(
        request.cells, request.p_a, request.p_b, request.p_cin)
    return 1.0 - min(1.0, max(0.0, p_success)), {
        "is_upper_bound": _chain_is_upper_bound(request)}


def _chain_samples(
    request: AnalysisRequest, samples: int, options: Mapping[str, object]
) -> Tuple[np.ndarray, np.ndarray]:
    from ..simulation.montecarlo import simulate_samples

    return simulate_samples(
        *_chain_args(request),
        samples=samples, seed=options.get("seed", 0),  # type: ignore[arg-type]
        progress=options.get("progress"),  # type: ignore[arg-type]
    )


def _chain_oracle(
    request: AnalysisRequest, progress: object
) -> "ExhaustiveQuality":
    from ..simulation.exhaustive import exhaustive_quality

    return exhaustive_quality(*_chain_args(request),
                              progress=progress)  # type: ignore[arg-type]


def _chain_dp_cost(request: AnalysisRequest) -> float:
    """``distribution-dp`` work in ops at the registry's 2M ops/s.

    ``med``, ``mred`` and ``wce`` are linear folds: 200 ops a bit,
    fitted to the worst LPAA 1-7 answers under jittered operand
    profiles on a 2-vCPU Xeon (``med`` 0.45, 0.75, 1.0 and 1.4 ms at
    widths 4, 8, 12 and 16; ``mred`` 0.32, 0.64, 0.96, 1.29, 2.53 and
    6.12 ms at widths 4, 8, 12, 16, 32 and 62; modelled 0.4, 0.8, 1.2,
    1.6, 3.2 and 6.2 ms).  ``error_distribution`` adds the dense PMF
    fold, whose delta windows span about ``2^(w+2)`` entries, capped by
    ``max_entries``: 1.7 ms at width 12 and 11 ms at 16 (modelled 1.8
    and 11.4 ms).  An error-free chain's zero answer is linear.
    """
    width = request.width
    if _zero_answer(request):
        return float(width)     # one structural check per bit
    if request.kind == KIND_ERROR_DISTRIBUTION:
        return 200.0 * width + 0.3 * min(2.0 ** width, 2.0e6)
    return 200.0 * width


_CHAINS = _Shape(
    prefix="distribution", block=False, kinds=DISTRIBUTION_KINDS,
    table=lambda request: chain_table(*_chain_args(request)),
    # The carry-pair table's sum-bit differences: its MED fold is exact,
    # and its P(error) stays exact under quantisation; the chain table's
    # rounded local-error sums can cancel later.
    difference=pair_form,
    pmf=lambda table: ErrorPMF(*fold_law(table).support()),
    p_error=_chain_p_error,
    sample=_chain_samples,
    oracle=_chain_oracle,
    dp_cost=_chain_dp_cost,
)


# -- windowed blocks --------------------------------------------------


def _block_table(request: AnalysisRequest) -> CarryTable:
    return windowed_table(request.block, request.p_a,  # type: ignore[arg-type]
                          request.p_b)


def _sparse_pmf(table: CarryTable, bits: Optional[int] = None) -> ErrorPMF:
    law = fold_sparse(table, quant_bits=bits)
    return ErrorPMF(law.deltas, law.probs)


def _block_samples(
    request: AnalysisRequest, samples: int, options: Mapping[str, object]
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded ``(approx, exact)`` sums through the bit-true windowed
    model and the exact adder, from one
    :func:`~repro.core.bitplanes.bernoulli_planes` draw of ``p_a``'s
    planes followed by ``p_b``'s.  A ``seed`` of ``None`` is an unseeded
    stream; an absent one is 0."""
    if samples < 1:
        raise AnalysisError(f"samples must be >= 1, got {samples}")
    seed = options.get("seed", 0)
    rng = np.random.default_rng(None if seed is None else int(seed))  # type: ignore[arg-type]
    planes = bernoulli_planes(rng, request.p_a + request.p_b, samples)
    a, b = planes[:request.width], planes[request.width:]
    approx = windowed_add_planes(request.block, a, b)  # type: ignore[arg-type]
    exact = windowed_add_planes(
        WindowedAdderSpec("exact", (0,) * request.width, 0), a, b)
    return planes_to_values(approx, samples), planes_to_values(exact, samples)


def _block_oracle(
    request: AnalysisRequest, progress: object
) -> "ExhaustiveQuality":
    from ..simulation.exhaustive import windowed_exhaustive_quality

    return windowed_exhaustive_quality(
        request.block, request.p_a, request.p_b)  # type: ignore[arg-type]


def _block_dp_cost(request: AnalysisRequest) -> float:
    """``zoo-dp`` work in ops at the registry's 2M ops/s.

    ``med``, ``mred``, ``wce`` and ``chain`` are linear folds over the
    cut table: 200 ops a bit covers the worst ``named_zoo(16)`` ``med``
    answer (1.4 ms at width 16 on a 2-vCPU Xeon), 300 the worst
    ``mred`` one (2.4 ms; median 1.1 ms).  Blocks with many windows
    cost more per bit (``med`` on ``aca1:62:31``: 15 ms; ``mred`` on
    ``axppa-ks:62:5``: 48 ms), which no deadline acts on: the rung is
    final for these kinds at every width.  The PMF fold's support grows
    like ``2^width``.  An exact spec's zero answer is linear.
    """
    width = request.width
    if _zero_answer(request):
        return float(width)     # one structural check per bit
    if request.kind == KIND_ERROR_DISTRIBUTION:
        return 8.0 * width * min(2.0 ** width, 4.0e6)
    return (300.0 if request.kind == KIND_MRED else 200.0) * width


_BLOCKS = _Shape(
    prefix="zoo", block=True, kinds=(KIND_CHAIN,) + DISTRIBUTION_KINDS,
    table=_block_table,
    difference=lambda table: table,
    pmf=_sparse_pmf,
    p_error=lambda request, table: (fold_nonzero(table), {}),
    sample=_block_samples,
    oracle=_block_oracle,
    dp_cost=_block_dp_cost,
)


def _shape(request: AnalysisRequest) -> _Shape:
    return _CHAINS if request.block is None else _BLOCKS


def sampling_engine(request: AnalysisRequest) -> Optional[str]:
    """The sampling engine of *request*'s shape, or ``None``.

    ``None`` when that shape's ladder does not serve ``request.kind`` (a
    chain's ``chain`` question, or a kind no magnitude engine answers);
    ``select_engine(simulate=True)`` starts its walk here."""
    shape = _shape(request)
    return shape.mc if request.kind in shape.kinds else None


_DESCRIPTIONS = {
    "distribution-dp": "exact carry DP: linear-fold MED and MRED, dense "
                       "error PMF, interval WCE",
    "distribution-dp-truncated": f"error-PMF DP at {QUANT_BITS} "
                                 "significant delta bits "
                                 "(mass-preserving, bounded support)",
    "distribution-exhaustive": "weighted enumeration oracle: PMF, MRED "
                               "and bias in one pass",
    "distribution-mc": "seeded sampling: Wilson-bounded ER, "
                       "normal-approximation MED/MRED intervals",
    "zoo-dp": "exact monotone-carry-cut DP over windowed block adders: "
              "ER, linear-fold MED and MRED, error PMF, interval WCE",
    "zoo-dp-truncated": "cut DP with mass-preserving delta quantisation "
                        "(bounded support at any width)",
    "zoo-exhaustive": "weighted enumeration oracle through the bit-true "
                      "windowed functional model",
    "zoo-mc": "seeded operand sampling through windowed_add_planes with "
              "Wilson/normal intervals",
}


def register_distribution_engines() -> None:
    """Register the four magnitude rungs under both shapes' names
    (idempotent)."""
    if "distribution-dp" in REGISTRY:
        return
    from ..simulation.exhaustive import MAX_EXHAUSTIVE_WIDTH

    for shape in (_CHAINS, _BLOCKS):
        dp, truncated, exhaustive = (
            f"{shape.prefix}-{rung}"
            for rung in ("dp", "dp-truncated", "exhaustive"))
        mc = shape.mc
        shared = dict(request_kinds=shape.kinds, supports_block=shape.block)
        REGISTRY.register(EngineInfo(
            name=dp, family=FAMILY_ANALYTICAL, exact=True,
            deterministic=True, run=run_distribution_dp,
            cost_estimate=shape.dp_cost,
            # Only the PMF is guarded: ``med``, ``mred``, ``wce`` (and a
            # block's ``chain``) read linear folds, exact at any width.
            width_limits={KIND_ERROR_DISTRIBUTION: DIST_EXACT_MAX_WIDTH},
            degrades_to={KIND_ERROR_DISTRIBUTION: truncated},
            description=_DESCRIPTIONS[dp], **shared,  # type: ignore[arg-type]
        ))
        REGISTRY.register(EngineInfo(
            name=truncated, family=FAMILY_ANALYTICAL, exact=False,
            deterministic=True, run=run_distribution_dp_truncated,
            cost_estimate=lambda request: 3000.0 * request.width ** 2,
            width_limits={KIND_ERROR_DISTRIBUTION: DIST_TRUNCATED_MAX_WIDTH},
            degrades_to={KIND_ERROR_DISTRIBUTION: mc},
            description=_DESCRIPTIONS[truncated],
            **shared,  # type: ignore[arg-type]
        ))
        REGISTRY.register(EngineInfo(
            name=exhaustive, family=FAMILY_SIMULATION, exact=True,
            deterministic=True, run=run_distribution_exhaustive,
            max_width=MAX_EXHAUSTIVE_WIDTH,
            cost_estimate=lambda request: 2.0 ** (2 * request.width + 1),
            description=_DESCRIPTIONS[exhaustive],
            **shared,  # type: ignore[arg-type]
        ))
        REGISTRY.register(EngineInfo(
            name=mc, family=FAMILY_SIMULATION, exact=False,
            run=run_distribution_mc,
            max_width=MC_MAX_WIDTH, default_samples=MC_DEFAULT_SAMPLES,
            cost_estimate=lambda request: float(MC_DEFAULT_SAMPLES),
            description=_DESCRIPTIONS[mc], **shared,  # type: ignore[arg-type]
        ))
