"""GeAr low-latency approximate adder: model and error analysis.

The paper's §2.2 substrate (ref [17]).  The exact linear-time error
probability its §1.1 claims is the zoo's carry-cut DP
(``engine.run(AnalysisRequest.zoo(from_gear(config)))``); this package
keeps the bit-true model, the traditional IE baseline, per-sub-adder
marginals, error correction and the named LLAA variants.
"""

from .analysis import (
    MAX_IE_SUBADDERS,
    GeArIEReport,
    gear_inclusion_exclusion,
    gear_subadder_error_probabilities,
)
from .config import GeArConfig, SubAdder
from .correction import (
    corrected_error_probability,
    detect_errors,
    error_count_distribution,
    expected_corrections,
    gear_add_corrected,
)
from .functional import gear_add, gear_add_array, gear_error_positions
from .variants import (
    aca_i,
    accurate_rca,
    etaii,
    named_variants,
    variant_comparison,
)

__all__ = [
    "GeArConfig",
    "SubAdder",
    "gear_add",
    "gear_add_array",
    "gear_error_positions",
    "gear_subadder_error_probabilities",
    "gear_inclusion_exclusion",
    "GeArIEReport",
    "MAX_IE_SUBADDERS",
    "detect_errors",
    "gear_add_corrected",
    "error_count_distribution",
    "expected_corrections",
    "corrected_error_probability",
    "aca_i",
    "etaii",
    "accurate_rca",
    "named_variants",
    "variant_comparison",
]
