"""The analysis baselines the paper compares against.

* :mod:`repro.baselines.inclusion_exclusion` -- the traditional
  IE-based analytical method (paper §3, ref [12]);
* :mod:`repro.baselines.operation_counter` -- Table 3 / Table 8 cost
  accounting plus an instrumented counter for this implementation.
"""

from .inclusion_exclusion import (
    MAX_IE_WIDTH,
    InclusionExclusionReport,
    chain_inclusion_exclusion,
    single_stage_error_probabilities,
    stage_error_event_probability,
)
from .operation_counter import (
    TABLE8_EQUAL_PROBABILITIES,
    TABLE8_VARYING_PROBABILITIES,
    OperationCount,
    count_recursion_operations,
    inclusion_exclusion_additions,
    inclusion_exclusion_memory_units,
    inclusion_exclusion_multiplications,
    inclusion_exclusion_terms,
    table3_row,
    table8_memory_units,
)

__all__ = [
    "chain_inclusion_exclusion",
    "single_stage_error_probabilities",
    "stage_error_event_probability",
    "InclusionExclusionReport",
    "MAX_IE_WIDTH",
    "inclusion_exclusion_terms",
    "inclusion_exclusion_multiplications",
    "inclusion_exclusion_additions",
    "inclusion_exclusion_memory_units",
    "table3_row",
    "TABLE8_EQUAL_PROBABILITIES",
    "TABLE8_VARYING_PROBABILITIES",
    "table8_memory_units",
    "OperationCount",
    "count_recursion_operations",
]
