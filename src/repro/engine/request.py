"""The ``AnalysisRequest`` / ``AnalysisResult`` protocol.

Every analysis and simulation backend in the library answers the same
question -- "with what probability is this approximate adder wrong?" --
through what used to be eight divergent call conventions.  The engine
layer normalises the question into one immutable, hashable
:class:`AnalysisRequest` (built via :meth:`AnalysisRequest.chain`,
:meth:`AnalysisRequest.zoo` or :meth:`AnalysisRequest.for_multiop`)
and the answer into one :class:`AnalysisResult`.

Requests carry *float* probabilities (quantizable, batchable,
cacheable).  Digit-exact ``fractions.Fraction`` analysis remains the
scalar primitive's domain (:func:`repro.core.recursive.analyze_chain`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple, Union

from ..core.exceptions import AnalysisError
from ..core.truth_table import FullAdderTruthTable

#: Request kinds understood by the registry.
KIND_CHAIN = "chain"
KIND_MULTIOP = "multiop"

#: Error-magnitude kinds: same chain operands, but the question is the
#: error *value* law (or a summary of it) rather than P(error) alone.
KIND_ERROR_DISTRIBUTION = "error_distribution"
KIND_MED = "med"
KIND_MRED = "mred"
KIND_WCE = "wce"
DISTRIBUTION_KINDS = (KIND_ERROR_DISTRIBUTION, KIND_MED, KIND_MRED,
                      KIND_WCE)

#: Metric names a request may ask for.
METRIC_P_ERROR = "p_error"
METRIC_P_SUCCESS = "p_success"
METRIC_MED = "med"
METRIC_NMED = "nmed"
METRIC_MSE = "mse"
METRIC_WCE = "wce"
METRIC_MRED = "mred"
METRIC_BIAS = "bias"
KNOWN_METRICS = (METRIC_P_ERROR, METRIC_P_SUCCESS, METRIC_MED,
                 METRIC_NMED, METRIC_MSE, METRIC_WCE, METRIC_MRED,
                 METRIC_BIAS)

#: Default metric set per distribution kind (what the answer leads with).
_KIND_DEFAULT_METRICS = {
    KIND_ERROR_DISTRIBUTION: (METRIC_P_ERROR, METRIC_MED, METRIC_WCE),
    KIND_MED: (METRIC_MED, METRIC_MSE),
    KIND_MRED: (METRIC_MRED,),
    KIND_WCE: (METRIC_WCE,),
}


@dataclass(frozen=True)
class AnalysisRequest:
    """One normalised analysis question.

    ``cells``/``p_a``/``p_b``/``p_cin`` describe a (possibly hybrid)
    ripple chain; ``block`` a windowed zoo adder (GeAr among them);
    ``operands`` a multi-operand CSA reduction.  ``joints`` (per-stage
    :class:`~repro.core.correlated.JointBitDistribution`) switches the
    chain analysis to the correlated-operand engine;
    ``check_masking=True`` stamps ``is_upper_bound`` on analytical
    results for chains that can mask internal errors.

    Instances are frozen and hashable, so they group and deduplicate
    naturally in the batch executor.
    """

    kind: str = KIND_CHAIN
    cells: Tuple[FullAdderTruthTable, ...] = ()
    p_a: Tuple[float, ...] = ()
    p_b: Tuple[float, ...] = ()
    p_cin: float = 0.5
    metrics: Tuple[str, ...] = (METRIC_P_ERROR,)
    joints: Optional[Tuple[object, ...]] = None
    check_masking: bool = True
    keep_trace: bool = False
    operands: Tuple[Tuple[float, ...], ...] = ()   # rows for KIND_MULTIOP
    compress_cell: Optional[FullAdderTruthTable] = None
    final_adder: Tuple[FullAdderTruthTable, ...] = ()
    block: Optional[object] = None         # WindowedAdderSpec for zoo adders

    @property
    def width(self) -> int:
        """Stage count (chain), bit width (block) or operand width."""
        if self.block is not None:
            return len(self.block.lows)  # type: ignore[attr-defined]
        if self.kind == KIND_CHAIN or self.kind in DISTRIBUTION_KINDS:
            return len(self.cells)
        return len(self.operands[0]) if self.operands else 0

    @property
    def cell_names(self) -> Tuple[str, ...]:
        if self.block is not None:
            return (self.block.name,)  # type: ignore[attr-defined]
        return tuple(t.name for t in self.cells)

    @classmethod
    def chain(
        cls,
        cell: object,
        width: Optional[int] = None,
        p_a: object = 0.5,
        p_b: object = 0.5,
        p_cin: float = 0.5,
        metrics: Sequence[str] = (METRIC_P_ERROR,),
        joints: Optional[Sequence[object]] = None,
        check_masking: bool = True,
        keep_trace: bool = False,
    ) -> "AnalysisRequest":
        """Normalise a ripple-chain question.

        *cell* follows the library-wide convention: a registered name, a
        truth table, a :class:`~repro.core.hybrid.HybridChain`, or a
        per-stage sequence of any of those (then *width* is optional).
        """
        from ..core.probability import float_probability_vector
        from ..core.recursive import resolve_chain
        from ..core.types import validate_probability

        cells = tuple(resolve_chain(_unwrap_chain(cell), width))
        n = len(cells)
        request = cls(
            kind=KIND_CHAIN,
            cells=cells,
            p_a=tuple(float_probability_vector(p_a, n, "p_a")),
            p_b=tuple(float_probability_vector(p_b, n, "p_b")),
            p_cin=float(validate_probability(p_cin, "p_cin")),
            metrics=_normalise_metrics(metrics),
            check_masking=check_masking,
            keep_trace=keep_trace,
        )
        if joints is not None:
            if len(joints) != n:
                raise AnalysisError(
                    f"need one joint distribution per stage: got "
                    f"{len(joints)} for {n} stages"
                )
            request = replace(request, joints=tuple(joints))
        return request

    @classmethod
    def distribution(
        cls,
        cell: object,
        width: Optional[int] = None,
        p_a: object = 0.5,
        p_b: object = 0.5,
        p_cin: float = 0.5,
        kind: str = KIND_MED,
        metrics: Optional[Sequence[str]] = None,
    ) -> "AnalysisRequest":
        """Normalise an error-*magnitude* question over a ripple chain.

        Same operand convention as :meth:`chain`, but *kind* selects
        which view of the error value ``D = approx - exact`` the engine
        answers:

        * ``"error_distribution"`` -- the full PMF of ``D``;
        * ``"med"`` -- mean/MSE error distance (``E[|D|]``, ``E[D^2]``);
        * ``"mred"`` -- mean relative error distance
          (``E[|D| / max(exact, 1)]``);
        * ``"wce"`` -- worst-case error ``max |D|``.

        *metrics* defaults to the kind's headline metrics; any name in
        :data:`KNOWN_METRICS` may be requested explicitly.
        """
        if kind not in DISTRIBUTION_KINDS:
            raise AnalysisError(
                f"unknown distribution kind {kind!r}; known: "
                f"{', '.join(DISTRIBUTION_KINDS)}"
            )
        base = cls.chain(cell, width, p_a, p_b, p_cin)
        wanted = (_KIND_DEFAULT_METRICS[kind] if metrics is None
                  else metrics)
        return replace(base, kind=kind, metrics=_normalise_metrics(wanted))

    @classmethod
    def zoo(
        cls,
        adder: object,
        p_a: object = 0.5,
        p_b: object = 0.5,
        kind: str = KIND_CHAIN,
        metrics: Optional[Sequence[str]] = None,
    ) -> "AnalysisRequest":
        """Normalise a question about a *named zoo adder*.

        *adder* is a config string (``"loa:16:8"``, ``"aca1:16:4"``,
        ``"axppa-ks:16:2"``), a parsed
        :class:`~repro.core.adder_zoo.ZooAdder`, or a raw
        :class:`~repro.core.adder_zoo.WindowedAdderSpec`.  Chain-shaped
        members (LOA and friends) become ordinary cell-chain requests
        served by every existing engine; block/prefix members carry the
        windowed spec in ``block`` and are served by the ``zoo-*``
        engine family.  Zoo adders always add with carry-in 0 (the
        reference is ``a + b``), so ``p_cin`` is fixed at 0.

        *kind* may be the plain ``"chain"`` (P(error)) or any
        error-magnitude kind in :data:`DISTRIBUTION_KINDS`.
        """
        from ..core.adder_zoo import WindowedAdderSpec, parse_adder

        if kind != KIND_CHAIN and kind not in DISTRIBUTION_KINDS:
            raise AnalysisError(
                f"unknown zoo request kind {kind!r}; known: chain, "
                f"{', '.join(DISTRIBUTION_KINDS)}"
            )
        if isinstance(adder, WindowedAdderSpec):
            built: object = adder
        else:
            built = parse_adder(adder).build()
        if not isinstance(built, WindowedAdderSpec):
            # Chain-shaped zoo member: an ordinary hybrid-cell request.
            if kind == KIND_CHAIN:
                request = cls.chain(list(built), p_a=p_a, p_b=p_b,
                                    p_cin=0.0)
            else:
                request = cls.distribution(list(built), p_a=p_a, p_b=p_b,
                                           p_cin=0.0, kind=kind)
            if metrics is not None:
                request = replace(request,
                                  metrics=_normalise_metrics(metrics))
            return request
        from ..core.probability import float_probability_vector

        n = built.width
        if metrics is None:
            wanted = ((METRIC_P_ERROR,) if kind == KIND_CHAIN
                      else _KIND_DEFAULT_METRICS[kind])
        else:
            wanted = tuple(metrics)
        return cls(
            kind=kind,
            block=built,
            p_a=tuple(float_probability_vector(p_a, n, "p_a")),
            p_b=tuple(float_probability_vector(p_b, n, "p_b")),
            p_cin=0.0,
            metrics=_normalise_metrics(wanted),
            check_masking=False,
        )

    @classmethod
    def for_multiop(
        cls,
        operand_probabilities: Sequence[Sequence[float]],
        width: int,
        compress_cell: object = "accurate",
        final_adder: object = None,
        metrics: Sequence[str] = (METRIC_P_ERROR,),
    ) -> "AnalysisRequest":
        """Normalise a multi-operand (CSA tree + final adder) question."""
        from ..core.probability import float_probability_vector
        from ..core.recursive import resolve_cell, resolve_chain

        rows = tuple(
            tuple(float_probability_vector(row, width, "operand"))
            for row in operand_probabilities
        )
        if not rows:
            raise AnalysisError("need at least one operand probability row")
        final: Tuple[FullAdderTruthTable, ...] = ()
        if final_adder is not None:
            final = tuple(resolve_chain(final_adder, width))
        return cls(
            kind=KIND_MULTIOP,
            operands=rows,
            compress_cell=resolve_cell(compress_cell),
            final_adder=final,
            metrics=_normalise_metrics(metrics),
        )


def _unwrap_chain(cell: object) -> object:
    """Accept HybridChain transparently (its cells tuple is the chain)."""
    cells = getattr(cell, "cells", None)
    if cells is not None and not isinstance(cell, (str, FullAdderTruthTable)):
        return list(cells)
    return cell


def _normalise_metrics(metrics: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(dict.fromkeys(metrics))  # dedupe, keep first-seen order
    if not names:
        raise AnalysisError("metrics must name at least one quantity")
    for name in names:
        if name not in KNOWN_METRICS:
            raise AnalysisError(
                f"unknown metric {name!r}; known: {', '.join(KNOWN_METRICS)}"
            )
    return names


@dataclass(frozen=True)
class AnalysisResult:
    """One engine answer, in a backend-independent shape.

    ``engine`` names the backend that actually ran; ``exact`` is its
    registry capability (``False`` for Monte-Carlo estimates);
    ``degraded_from``/``reason`` carry the selection provenance when the
    budget forced a downgrade; ``raw`` keeps the backend-native result
    (``MonteCarloResult``, ``ExhaustiveResult``,
    ``InclusionExclusionReport``, ...) for callers that need manifests,
    checkpoints or term counts.

    The error-magnitude fields (``med``/``nmed``/``mse``/``wce``/
    ``mred``/``bias``) are populated by the distribution engines
    (:data:`DISTRIBUTION_KINDS` requests) and ``None`` for plain
    P(error) answers; ``distribution`` carries the full
    ``((delta, probability), ...)`` PMF for ``error_distribution``
    requests (sorted by delta).
    """

    p_error: float
    p_success: float
    engine: str
    exact: bool
    width: int
    kind: str = KIND_CHAIN
    cell_names: Tuple[str, ...] = ()
    samples: Optional[int] = None
    cases: Optional[int] = None
    truncated: bool = False
    stop_reason: Optional[str] = None
    degraded_from: Optional[str] = None
    reason: Optional[str] = None
    interval: Optional[Tuple[float, float]] = None
    is_upper_bound: bool = False
    med: Optional[float] = None
    nmed: Optional[float] = None
    mse: Optional[float] = None
    wce: Optional[float] = None
    mred: Optional[float] = None
    bias: Optional[float] = None
    distribution: Optional[Tuple[Tuple[int, float], ...]] = None
    trace: Tuple = ()
    raw: object = field(default=None, repr=False, compare=False)

    def value(self, metric: str) -> float:
        """Look up one of the request's metric names."""
        if metric == METRIC_P_ERROR:
            return self.p_error
        if metric == METRIC_P_SUCCESS:
            return self.p_success
        if metric in KNOWN_METRICS:
            found = getattr(self, metric)
            if found is None:
                raise AnalysisError(
                    f"result from engine {self.engine!r} "
                    f"(kind={self.kind!r}) does not carry metric "
                    f"{metric!r}"
                )
            return float(found)
        raise AnalysisError(f"unknown metric {metric!r}")
