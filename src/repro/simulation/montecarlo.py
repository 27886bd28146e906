"""Monte-Carlo simulation of approximate adders (paper Table 6, row 2).

For non-equiprobable inputs the paper could not enumerate exhaustively
and instead averaged 1 million random cases ("can be increased for
better precision match").  This module reproduces that estimator with a
vectorised, seeded sampler: each batch draws its operand and carry-in
bits straight into packed planes with one
:func:`~repro.core.bitplanes.bernoulli_planes` call and runs them
through the bit-sliced ripple kernel.

* :func:`simulate_error_probability` -- the Table 7 "Sim." column;
* :func:`simulate_samples` -- raw (approx, exact) sample arrays for
  quality-metric estimation;
* :class:`MonteCarloResult` -- point estimate plus confidence intervals
  (normal approximation by default, Wilson score on request), making
  the "matches to the 3rd decimal place" claim quantitative.

The default of one million samples matches the paper.  Long runs are
observable: batches emit :class:`repro.obs.Progress` callbacks, timers
land in the metrics registry, and every result carries a
:class:`repro.obs.RunManifest` recording seed/samples/cells/version.

Long runs are also *resilient*: :func:`simulate_error_probability`
accepts a :class:`repro.runtime.RunBudget` (stop cleanly at a deadline
or sample cap, returning a partial result flagged ``truncated=True``)
and a checkpoint path (periodic crash-safe snapshots of the error
counts plus the RNG bit-generator state, so ``resume=True`` finishes
bit-identical to an uninterrupted run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..core.bitplanes import bernoulli_planes, planes_to_values
from ..core.exceptions import AnalysisError, ChainLengthError
from ..core.probability import float_probability_vector
from ..core.recursive import CellSpec, resolve_chain
from ..core.truth_table import ACCURATE
from ..core.types import Probability, validate_probability
from ..obs import metrics as _metrics
from ..obs.log import Progress, ProgressCallback, get_logger, log_event
from ..obs.provenance import RunManifest, StopWatch, build_manifest
from ..obs.tracing import trace_span
from ..runtime import chaos as _chaos
from ..runtime.budget import STOP_MAX_SAMPLES, RunBudget, make_meter
from ..runtime.checkpoint import (
    Checkpoint,
    config_fingerprint,
    load_checkpoint,
    rng_state_from_jsonable,
    rng_state_to_jsonable,
    save_checkpoint,
)
from .functional import ripple_add_planes

#: Sample count used throughout the paper's inequiprobable validation.
PAPER_SAMPLE_COUNT = 1_000_000

#: Rough per-sample peak footprint of one batch: the int64 result words
#: and their plane conversions.  :func:`_effective_batch_size` adds
#: ``2 * width`` bytes for the packed draw, whose few uint64 work arrays
#: over ``2 * width + 1`` planes hold about ``width`` bytes per sample.
#: Used with a budget's ``memory_hint_mb`` to clamp the batch size.
_BYTES_PER_SAMPLE_BASE = 6 * 8

_logger = get_logger("simulation.montecarlo")


def _effective_batch_size(
    batch_size: int, width: int, budget: Optional[RunBudget]
) -> int:
    """Clamp *batch_size* to a budget's memory hint (if any)."""
    if budget is None or budget.memory_hint_mb is None:
        return batch_size
    per_sample = _BYTES_PER_SAMPLE_BASE + 2 * width
    cap = int(budget.memory_hint_mb * 1_000_000 / per_sample)
    return max(1, min(batch_size, cap))


def wilson_interval(p: float, n: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval ``(lo, hi)`` for a proportion *p* observed
    over *n* trials at quantile *z*; keeps positive width at p = 0 or 1."""
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of a Monte-Carlo error-probability estimation.

    ``truncated=True`` marks a run stopped early by its
    :class:`~repro.runtime.RunBudget` -- ``samples`` then reflects the
    samples actually drawn (the estimate is valid, just lower
    precision), ``requested_samples`` the original target and
    ``stop_reason`` why the run stopped.
    """

    p_error: float
    samples: int
    errors: int
    seed: Optional[int]
    manifest: Optional[RunManifest] = None
    truncated: bool = False
    stop_reason: Optional[str] = None
    requested_samples: Optional[int] = None

    def half_width(self, z: float = 1.96, method: str = "normal") -> float:
        """Confidence half-width at quantile *z* (default 1.96 == 95%).

        ``method="normal"`` is the classic Wald interval; it degenerates
        to 0 when ``p_error`` is exactly 0 or 1, overstating precision
        at the extremes.  ``method="wilson"`` returns half the Wilson
        score interval, which stays positive there.
        """
        if method == "wilson":
            lo, hi = self.wilson_interval(z)
            return (hi - lo) / 2.0
        if method != "normal":
            raise ValueError(
                f"unknown interval method {method!r} (normal or wilson)"
            )
        p = self.p_error
        return z * (p * (1.0 - p) / self.samples) ** 0.5

    def wilson_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson score confidence interval ``(lo, hi)`` at quantile *z*.

        Unlike the normal approximation, the interval keeps positive
        width at ``p_error`` 0 or 1 (e.g. ~(0, 3.8e-6) after a clean
        million-sample run), so "no errors observed" is not mistaken
        for "errors impossible".
        """
        return wilson_interval(self.p_error, self.samples, z)

    @property
    def p_success(self) -> float:
        """Complement estimate ``1 - p_error``."""
        return 1.0 - self.p_error


def simulate_samples(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    samples: int = PAPER_SAMPLE_COUNT,
    seed: Optional[int] = None,
    batch_size: int = 1 << 20,
    progress: Optional[ProgressCallback] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw random additions and return ``(approx, exact)`` result arrays.

    Sampling is batched so arbitrarily large *samples* keep bounded
    memory; *progress* (``callback(done, total, label)``) and the INFO
    log report batch completion at decile boundaries.  The results are
    int64 words, so the width is at most 62 (a wider chain raises
    :class:`~repro.core.exceptions.ChainLengthError` rather than return
    wrapped sums).
    """
    cells = resolve_chain(cell, width)
    n = len(cells)
    if n > 62:
        raise ChainLengthError(
            f"sampled sums of a {n}-bit chain do not fit int64 words "
            "(at most 62 bits)", length=n)
    if samples < 1:
        raise AnalysisError(f"samples must be >= 1, got {samples}")
    pa = float_probability_vector(p_a, n, "p_a")
    pb = float_probability_vector(p_b, n, "p_b")
    pc = float(validate_probability(p_cin, "p_cin"))

    exact_cells = [ACCURATE] * n
    rng = np.random.default_rng(seed)
    approx_parts = []
    exact_parts = []
    remaining = samples
    reporter = Progress(samples, "montecarlo.samples", callback=progress,
                        logger=_logger)
    with _metrics.timed("simulation.montecarlo.simulate_samples"), \
            trace_span("simulation.montecarlo.simulate_samples",
                       width=n, samples=samples):
        while remaining > 0:
            chunk = min(remaining, batch_size)
            with _metrics.timed("simulation.montecarlo.batch"):
                planes = bernoulli_planes(rng, pa + pb + [pc], chunk)
                a, b, cin = planes[:n], planes[n:2 * n], planes[2 * n]
                approx_parts.append(planes_to_values(
                    ripple_add_planes(cells, a, b, cin), chunk))
                exact_parts.append(planes_to_values(
                    ripple_add_planes(exact_cells, a, b, cin), chunk))
            remaining -= chunk
            reporter.update(chunk)
    reporter.finish()
    if _metrics.is_enabled():
        _metrics.get_registry().counter(
            "simulation.montecarlo.samples"
        ).add(samples)
    return np.concatenate(approx_parts), np.concatenate(exact_parts)


def simulate_error_probability(
    cell: Union[CellSpec, Sequence[CellSpec]],
    width: Optional[int] = None,
    p_a: Union[Probability, Sequence[Probability]] = 0.5,
    p_b: Union[Probability, Sequence[Probability]] = 0.5,
    p_cin: Probability = 0.5,
    samples: int = PAPER_SAMPLE_COUNT,
    seed: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    batch_size: int = 1 << 20,
    budget: Optional[RunBudget] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 1,
    resume: bool = False,
) -> MonteCarloResult:
    """Estimate ``P(Error)`` from *samples* random additions.

    With the paper's one million samples the estimate agrees with the
    analytical value to about the 3rd decimal place (Table 6), since the
    standard error is ``sqrt(p(1-p)/1e6) <= 5e-4``.

    Unlike :func:`simulate_samples` this never materialises the full
    sample arrays: errors are counted per batch, so memory stays bounded
    by *batch_size* regardless of *samples*.

    Resilience knobs:

    * *budget* -- a :class:`repro.runtime.RunBudget`; the run stops
      cleanly at the deadline / sample cap (checked at batch
      boundaries, after at least one batch) and returns a partial
      result flagged ``truncated=True`` with the stop reason in the
      manifest;
    * *checkpoint_path* -- write a crash-safe checkpoint (error counts
      + RNG state) every *checkpoint_every* completed batches, and once
      more when the run ends or is interrupted;
    * *resume* -- restore counts and RNG state from *checkpoint_path*
      and continue; the final result is bit-identical to an
      uninterrupted run with the same configuration (the checkpoint's
      configuration fingerprint is verified, mismatches raise
      :class:`~repro.core.exceptions.CheckpointError`).
    """
    watch = StopWatch()
    cells = resolve_chain(cell, width)
    n = len(cells)
    if samples < 1:
        raise AnalysisError(f"samples must be >= 1, got {samples}")
    if checkpoint_every < 1:
        raise AnalysisError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    if resume and checkpoint_path is None:
        raise AnalysisError("resume=True requires checkpoint_path")
    pa = float_probability_vector(p_a, n, "p_a")
    pb = float_probability_vector(p_b, n, "p_b")
    pc = float(validate_probability(p_cin, "p_cin"))

    exact_cells = [ACCURATE] * n
    eff_batch = _effective_batch_size(batch_size, n, budget)
    # ``draw`` names the operand stream, so a checkpoint written under
    # another draw is refused, not spliced onto this one.
    fingerprint = config_fingerprint(
        kind="montecarlo", cells=[t.name for t in cells], seed=seed,
        samples=samples, p_a=pa, p_b=pb, p_cin=pc, batch_size=eff_batch,
        draw="bernoulli-planes",
    )
    rng = np.random.default_rng(seed)
    done = 0
    errors = 0
    sequence = 0
    if resume:
        saved = load_checkpoint(checkpoint_path, expect_kind="montecarlo",
                                expect_fingerprint=fingerprint)
        done = int(saved.payload["samples_done"])  # type: ignore[arg-type]
        errors = int(saved.payload["errors"])  # type: ignore[arg-type]
        sequence = saved.sequence
        rng.bit_generator.state = rng_state_from_jsonable(
            saved.payload["rng_state"]  # type: ignore[arg-type]
        )
        log_event(_logger, "montecarlo.resumed", samples_done=done,
                  errors=errors, path=checkpoint_path)

    meter = make_meter(budget)
    stop_reason: Optional[str] = None
    progressed = False
    reporter = Progress(samples, "montecarlo.samples", callback=progress,
                        logger=_logger)
    if done:
        reporter.update(done)
    latest_payload: Optional[dict] = None
    batches_since_save = 0

    def snapshot() -> dict:
        return {
            "samples_done": done,
            "errors": errors,
            "rng_state": rng_state_to_jsonable(rng.bit_generator.state),
        }

    def flush(payload: dict) -> None:
        nonlocal sequence, batches_since_save
        sequence += 1
        save_checkpoint(
            checkpoint_path,
            Checkpoint(kind="montecarlo", fingerprint=fingerprint,
                       payload=payload, sequence=sequence),
        )
        batches_since_save = 0

    try:
        with _metrics.timed("simulation.montecarlo.simulate"), \
                trace_span("simulation.montecarlo.simulate",
                           width=n, samples=samples):
            while done < samples:
                if progressed:
                    stop_reason = meter.stop_reason()
                    if stop_reason is not None:
                        break
                chunk = meter.remaining_samples(min(eff_batch, samples - done))
                if chunk == 0:
                    stop_reason = meter.stop_reason() or STOP_MAX_SAMPLES
                    break
                with _metrics.timed("simulation.montecarlo.batch"):
                    planes = bernoulli_planes(rng, pa + pb + [pc], chunk)
                    a, b, cin = planes[:n], planes[n:2 * n], planes[2 * n]
                    wrong = np.bitwise_or.reduce(
                        ripple_add_planes(cells, a, b, cin)
                        ^ ripple_add_planes(exact_cells, a, b, cin), axis=0)
                    errors += int(np.unpackbits(
                        wrong, count=chunk, bitorder="little").sum())
                done += chunk
                progressed = True
                meter.charge(samples=chunk)
                reporter.update(chunk)
                latest_payload = snapshot()
                batches_since_save += 1
                if (checkpoint_path is not None
                        and batches_since_save >= checkpoint_every):
                    flush(latest_payload)
                _chaos.tick("montecarlo.batch")
    except KeyboardInterrupt:
        # Flush the last completed batch so the run is resumable, then
        # let the interrupt propagate (the CLI converts it to exit 130).
        if checkpoint_path is not None and latest_payload is not None:
            flush(latest_payload)
        raise
    reporter.finish()
    if checkpoint_path is not None and batches_since_save > 0 \
            and latest_payload is not None:
        flush(latest_payload)

    truncated = done < samples
    manifest = build_manifest(
        "montecarlo",
        seed=seed,
        samples=done,
        cells=[t.name for t in cells],
        wall_time_s=watch.elapsed(),
        budget=budget.as_dict() if budget is not None else None,
        truncated=True if truncated else None,
        stop_reason=stop_reason,
        p_a=pa, p_b=pb, p_cin=pc,
        **({"samples_requested": samples} if truncated else {}),
    )
    if _metrics.is_enabled():
        registry = _metrics.get_registry()
        registry.counter("simulation.montecarlo.samples").add(done)
        registry.counter("simulation.montecarlo.errors").add(errors)
    p_error = errors / done if done else 0.0
    log_event(_logger, "montecarlo.done", samples=done, errors=errors,
              p_error=p_error, truncated=truncated,
              wall_s=manifest.wall_time_s)
    return MonteCarloResult(
        p_error=p_error, samples=done, errors=errors, seed=seed,
        manifest=manifest, truncated=truncated, stop_reason=stop_reason,
        requested_samples=samples if truncated else None,
    )
