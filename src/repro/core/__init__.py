"""Core of the library: the paper's recursive statistical error analysis.

Public surface:

* cells and truth tables -- :mod:`repro.core.truth_table`,
  :mod:`repro.core.adders`;
* analysis masks -- :mod:`repro.core.matrices`;
* the recursion (scalar / traced / vectorised) --
  :mod:`repro.core.recursive`, :mod:`repro.core.stages`,
  :mod:`repro.core.vectorized`;
* extensions -- :mod:`repro.core.sum_analysis`,
  :mod:`repro.core.magnitude`, :mod:`repro.core.metrics`,
  :mod:`repro.core.hybrid`, :mod:`repro.core.masking`.
"""

from .adder_zoo import (
    PREFIX_TOPOLOGIES,
    ZOO_FAMILIES,
    WindowedAdderSpec,
    WindowedQualityReport,
    ZooAdder,
    ZooCost,
    ZooFamily,
    from_gear,
    named_zoo,
    parse_adder,
    prefix_depth,
    prefix_levels,
    truncated_prefix_spec,
    windowed_add,
    windowed_add_array,
    windowed_error_moments,
    windowed_error_pmf,
    windowed_error_probability,
    windowed_exhaustive_quality,
    windowed_joint_error_pmf,
    windowed_worst_case_error,
    zoo_cost,
)
from .adders import (
    ACCURATE_CELL,
    CELL_CHARACTERISTICS,
    LPAA1,
    LPAA2,
    LPAA3,
    LPAA4,
    LPAA5,
    LPAA6,
    LPAA7,
    PAPER_LPAAS,
    CellCharacteristics,
    CellRegistry,
    LOA_GEN,
    LOA_OR,
    get_cell,
    paper_cell,
    registry,
)
from .exceptions import (
    AnalysisError,
    ChainLengthError,
    CheckpointError,
    ExplorationError,
    GeArConfigError,
    NetlistError,
    ProbabilityError,
    RegistryError,
    ReproError,
    SupportLimitError,
    SynthesisError,
    TruthTableError,
    ValidationError,
)
from .correlated import (
    JointBitDistribution,
    analyze_chain_correlated,
    self_addition_error,
)
from .hybrid import HybridChain
from .magnitude import (
    ErrorLaw,
    ErrorMoments,
    WorstCaseError,
    error_law,
    error_moments,
    error_pmf,
    joint_error_pmf,
    relative_error_from_joint,
    worst_case_error,
)
from .masking import MaskingReport, chain_is_exact, masking_analysis
from .matrices import (
    TABLE5_MATRICES,
    AnalysisMatrices,
    derive_carry_matrices,
    derive_matrices,
    derive_sum_matrix,
)
from .metrics import (
    QualityMetrics,
    metrics_from_law,
    metrics_from_pmf,
    metrics_from_samples,
)
from .recursive import (
    ChainAnalysisResult,
    StageRecord,
    analyze_chain,
)
from .stages import format_trace_table, trace_chain, trace_rows
from .symbolic import Polynomial, symbolic_error_probability
from .sum_analysis import (
    JointCarryState,
    bit_error_probabilities,
    carry_profile,
    joint_carry_profile,
    sum_bit_probabilities,
)
from .truth_table import ACCURATE, ErrorCase, FullAdderTruthTable
from .value_distribution import (
    output_bias,
    output_mean,
    output_value_pmf,
    total_variation_distance,
)
from .vectorized import (
    analyze_batch,
    success_by_width,
)

__all__ = [
    # cells / tables
    "ACCURATE",
    "ACCURATE_CELL",
    "FullAdderTruthTable",
    "ErrorCase",
    "LPAA1",
    "LPAA2",
    "LPAA3",
    "LPAA4",
    "LPAA5",
    "LPAA6",
    "LPAA7",
    "PAPER_LPAAS",
    "CELL_CHARACTERISTICS",
    "CellCharacteristics",
    "CellRegistry",
    "registry",
    "get_cell",
    "paper_cell",
    "LOA_OR",
    "LOA_GEN",
    # the adder-family zoo
    "WindowedAdderSpec",
    "WindowedQualityReport",
    "ZooAdder",
    "ZooCost",
    "ZooFamily",
    "ZOO_FAMILIES",
    "PREFIX_TOPOLOGIES",
    "from_gear",
    "named_zoo",
    "parse_adder",
    "prefix_depth",
    "prefix_levels",
    "truncated_prefix_spec",
    "windowed_add",
    "windowed_add_array",
    "windowed_error_moments",
    "windowed_error_pmf",
    "windowed_error_probability",
    "windowed_exhaustive_quality",
    "windowed_joint_error_pmf",
    "windowed_worst_case_error",
    "zoo_cost",
    # masks
    "AnalysisMatrices",
    "TABLE5_MATRICES",
    "derive_matrices",
    "derive_carry_matrices",
    "derive_sum_matrix",
    # recursion
    "analyze_chain",
    "ChainAnalysisResult",
    "StageRecord",
    "trace_chain",
    "trace_rows",
    "format_trace_table",
    # vectorised
    "analyze_batch",
    "success_by_width",
    # extensions
    "carry_profile",
    "sum_bit_probabilities",
    "joint_carry_profile",
    "bit_error_probabilities",
    "JointCarryState",
    "error_pmf",
    "error_law",
    "ErrorLaw",
    "error_moments",
    "ErrorMoments",
    "WorstCaseError",
    "worst_case_error",
    "joint_error_pmf",
    "relative_error_from_joint",
    "QualityMetrics",
    "metrics_from_pmf",
    "metrics_from_law",
    "metrics_from_samples",
    "Polynomial",
    "symbolic_error_probability",
    "JointBitDistribution",
    "analyze_chain_correlated",
    "self_addition_error",
    "output_value_pmf",
    "output_mean",
    "output_bias",
    "total_variation_distance",
    "HybridChain",
    "chain_is_exact",
    "masking_analysis",
    "MaskingReport",
    # exceptions
    "ReproError",
    "ProbabilityError",
    "TruthTableError",
    "ChainLengthError",
    "RegistryError",
    "GeArConfigError",
    "NetlistError",
    "SynthesisError",
    "AnalysisError",
    "ExplorationError",
    "CheckpointError",
    "SupportLimitError",
    "ValidationError",
]
