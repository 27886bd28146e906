"""Functional, exhaustive and Monte-Carlo simulation of approximate adders.

These are the baselines the paper's analytical method is validated
against (Tables 6 and 7) plus the cost models behind Fig. 1.
"""

from .cost_model import (
    TimingPoint,
    analytical_operation_count,
    exhaustive_case_count,
    exhaustive_operation_count,
    measure_analytical_time,
    measure_exhaustive_time,
)
from .exhaustive import (
    MAX_EXHAUSTIVE_WIDTH,
    ExhaustiveQuality,
    ExhaustiveResult,
    exhaustive_error_count,
    exhaustive_error_pmf,
    exhaustive_error_probability,
    exhaustive_quality,
    exhaustive_report,
    windowed_exhaustive_quality,
)
from .functional import (
    exact_add,
    ripple_add,
    ripple_add_array,
    ripple_add_planes,
)
from .montecarlo import (
    PAPER_SAMPLE_COUNT,
    MonteCarloResult,
    simulate_error_probability,
    simulate_samples,
)

__all__ = [
    "ripple_add",
    "ripple_add_array",
    "ripple_add_planes",
    "exact_add",
    "exhaustive_error_probability",
    "exhaustive_error_count",
    "exhaustive_error_pmf",
    "exhaustive_report",
    "exhaustive_quality",
    "windowed_exhaustive_quality",
    "ExhaustiveResult",
    "ExhaustiveQuality",
    "MAX_EXHAUSTIVE_WIDTH",
    "simulate_error_probability",
    "simulate_samples",
    "MonteCarloResult",
    "PAPER_SAMPLE_COUNT",
    "exhaustive_case_count",
    "exhaustive_operation_count",
    "analytical_operation_count",
    "measure_exhaustive_time",
    "measure_analytical_time",
    "TimingPoint",
]
