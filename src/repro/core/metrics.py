"""Standard approximate-arithmetic quality metrics.

Computes the metrics commonly reported alongside error probability in
the approximate-adder literature, either from an exact error PMF
(:func:`metrics_from_pmf`, fed by :func:`repro.core.magnitude.error_pmf`)
or from paired sample arrays (:func:`metrics_from_samples`, fed by the
simulators):

* **ER** -- error rate, ``P(D != 0)`` (the paper's ``P(Error)``);
* **MED** -- mean error distance, ``E[|D|]``;
* **NMED** -- MED normalised by the maximum exact output;
* **MSE** -- mean squared error, ``E[D^2]``;
* **WCE** -- worst-case error, ``max |D|`` over the support;
* **MRED** -- mean relative error distance, ``E[|D| / max(exact, 1)]``
  (samples only, since it needs the exact value, not just ``D``).

The exact DP engines need no PMF for these: they take MED, MSE, bias
and WCE from the linear folds of :mod:`repro.core.magnitude`
(``fold_med``, ``fold_moments``, ``fold_extremes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from .exceptions import AnalysisError


@dataclass(frozen=True)
class QualityMetrics:
    """A bundle of approximate-adder quality metrics.

    ``mred`` is ``None`` when the metrics came from a PMF over ``D``
    (relative error needs the exact operand values).
    """

    error_rate: float
    med: float
    nmed: float
    mse: float
    wce: int
    mred: Optional[float] = None

    @property
    def rmse(self) -> float:
        """Root of :attr:`mse`."""
        return float(self.mse) ** 0.5

    def as_dict(self) -> Dict[str, Optional[float]]:
        """Plain-dict view for reporting/CSV export."""
        return {
            "error_rate": self.error_rate,
            "med": self.med,
            "nmed": self.nmed,
            "mse": self.mse,
            "wce": float(self.wce),
            "mred": self.mred,
        }


def max_exact_output(width: int) -> int:
    """Largest exact sum of a *width*-bit addition: ``2^(width+1) - 1``
    (two all-ones operands plus carry-in)."""
    if width < 1:
        raise AnalysisError(f"width must be >= 1, got {width}")
    return (1 << (width + 1)) - 1


def _check_total(total: float) -> None:
    if abs(total - 1.0) > 1e-6:
        raise AnalysisError(f"PMF sums to {total!r}, expected 1.0")


def metrics_from_pmf(pmf: Mapping[int, float], width: int) -> QualityMetrics:
    """Compute metrics from an exact ``{delta: probability}`` PMF.

    The PMF must (approximately) sum to 1; a drift beyond 1e-6 raises,
    catching accidentally pruned or partial distributions.
    """
    if not pmf:
        raise AnalysisError("empty PMF")
    _check_total(float(sum(pmf.values())))
    error_rate = float(sum(p for d, p in pmf.items() if d != 0))
    med = float(sum(abs(d) * p for d, p in pmf.items()))
    mse = float(sum(d * d * p for d, p in pmf.items()))
    wce = max((abs(d) for d, p in pmf.items() if p > 0.0), default=0)
    return QualityMetrics(
        error_rate=error_rate,
        med=med,
        nmed=med / max_exact_output(width),
        mse=mse,
        wce=int(wce),
        mred=None,
    )


def metrics_from_samples(
    approx: np.ndarray, exact: np.ndarray, width: int
) -> QualityMetrics:
    """Compute metrics from paired output samples of the two adders.

    Parameters
    ----------
    approx, exact:
        Equal-length integer arrays of approximate and exact sums for
        the same operand samples.
    width:
        Operand width in bits (for NMED normalisation).
    """
    approx = np.asarray(approx, dtype=np.int64)
    exact = np.asarray(exact, dtype=np.int64)
    if approx.shape != exact.shape or approx.ndim != 1:
        raise AnalysisError(
            f"approx/exact must be equal-length 1-D arrays, got "
            f"{approx.shape} and {exact.shape}"
        )
    if approx.size == 0:
        raise AnalysisError("empty sample arrays")
    delta = approx - exact
    abs_delta = np.abs(delta)
    return metrics_from_errors(delta, abs_delta,
                               abs_delta / np.maximum(exact, 1), width)


def metrics_from_errors(
    delta: np.ndarray, abs_delta: np.ndarray, relative: np.ndarray,
    width: int
) -> QualityMetrics:
    """:func:`metrics_from_samples` off its per-sample arrays, for callers
    that reuse them: the int64 ``delta = approx - exact``, its absolute
    value, and the float64 ``abs_delta / max(exact, 1)``."""
    med = float(abs_delta.mean())
    return QualityMetrics(
        error_rate=float((delta != 0).mean()),
        med=med,
        nmed=med / max_exact_output(width),
        mse=float((delta.astype(np.float64) ** 2).mean()),
        wce=int(abs_delta.max()),
        mred=float(relative.mean()),
    )
