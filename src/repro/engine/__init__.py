"""Unified, cached, batch-first analysis engine.

This package is the single front door to every analysis and simulation
backend in the library:

* :mod:`repro.engine.request` -- the :class:`AnalysisRequest` /
  :class:`AnalysisResult` protocol all backends speak;
* :mod:`repro.engine.registry` -- capability metadata, abstract cost
  estimates and ``degrades_to`` rungs per backend, the data
  :func:`select_engine` walks;
* :mod:`repro.engine.cache` -- the process-wide stage-matrix LRU keyed
  by (cell truth-table fingerprint, quantized operand probabilities);
* :mod:`repro.engine.diskcache` -- the opt-in persistent result tier:
  an in-memory result LRU over a content-addressed on-disk store shared
  across processes and restarts (``configure_result_cache``);
* :mod:`repro.engine.segcache` -- the opt-in segment tier
  (``configure_segment_cache``): exact transfer matrices of chain
  *segments*, content-addressed and prefix-shared, giving O(log N)
  chain analysis through :mod:`repro.core.transfer`;
* :mod:`repro.engine.executor` -- :func:`run`, :func:`run_batch` and
  :func:`error_curves`, instrumented through :mod:`repro.obs`.

Typical use::

    from repro import engine

    result = engine.run("axa3", 8, p_a=0.3)        # analytical, cached
    result = engine.run("axa3", 24, simulate=True)  # routed simulation
    curves = engine.error_curves("axa2", 16)

    request = engine.AnalysisRequest.zoo("gear:16:4:4")  # zoo-dp
    result = engine.run(request)

Layering rule: ``core/`` never imports this package; the engine sits on
top of ``core``, ``simulation``, ``baselines`` and ``multiop`` and is
in turn used by ``runtime.validation``, ``explore``, ``circuits``,
``gear``, ``apps`` and the CLI.
"""

from .cache import (
    GLOBAL_CACHE,
    CacheStats,
    StageMatrixCache,
    StageTransition,
    analysis_matrices,
    cache_stats,
    clear_cache,
    configure_cache,
    mask_arrays,
    stage_transition,
)
from .diskcache import (
    DEFAULT_MEMORY_ENTRIES,
    STORE_FORMAT,
    DiskResultStore,
    DiskStoreStats,
    ResultCache,
    cacheable_result,
    configure_result_cache,
    disable_result_cache,
    get_result_cache,
    request_key,
)
from .segcache import (
    DiskSegmentStore,
    SegmentCache,
    configure_segment_cache,
    disable_segment_cache,
    get_segment_cache,
)
from .registry import (
    FAMILY_ANALYTICAL,
    FAMILY_SIMULATION,
    OPS_PER_SECOND,
    REGISTRY,
    EngineInfo,
    EngineRegistry,
)
from .request import (
    DISTRIBUTION_KINDS,
    KIND_CHAIN,
    KIND_ERROR_DISTRIBUTION,
    KIND_MED,
    KIND_MRED,
    KIND_MULTIOP,
    KIND_WCE,
    KNOWN_METRICS,
    METRIC_BIAS,
    METRIC_MED,
    METRIC_MRED,
    METRIC_MSE,
    METRIC_NMED,
    METRIC_P_ERROR,
    METRIC_P_SUCCESS,
    METRIC_WCE,
    AnalysisRequest,
    AnalysisResult,
)
from .backends import register_builtin_engines
from .distribution import (
    DIST_EXACT_MAX_WIDTH,
    DIST_TRUNCATED_MAX_WIDTH,
    MRED_EXACT_MAX_WIDTH,
    QUANT_BITS,
    register_distribution_engines,
)
from .executor import error_curves, run, run_batch, select_engine
from .zoo import (
    ZOO_EXACT_MAX_WIDTH,
    ZOO_MC_MAX_WIDTH,
    ZOO_MRED_EXACT_MAX_WIDTH,
    ZOO_TRUNCATED_MAX_WIDTH,
    register_zoo_engines,
)
from .parallel import (
    PARALLEL_EXHAUSTIVE,
    budget_allows_parallel,
    parallel_exhaustive,
    resolve_jobs,
    run_batch_parallel,
)

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "CacheStats",
    "DEFAULT_MEMORY_ENTRIES",
    "DiskResultStore",
    "DiskSegmentStore",
    "DiskStoreStats",
    "ResultCache",
    "SegmentCache",
    "STORE_FORMAT",
    "cacheable_result",
    "configure_result_cache",
    "disable_result_cache",
    "get_result_cache",
    "request_key",
    "EngineInfo",
    "EngineRegistry",
    "FAMILY_ANALYTICAL",
    "FAMILY_SIMULATION",
    "GLOBAL_CACHE",
    "OPS_PER_SECOND",
    "DISTRIBUTION_KINDS",
    "DIST_EXACT_MAX_WIDTH",
    "DIST_TRUNCATED_MAX_WIDTH",
    "MRED_EXACT_MAX_WIDTH",
    "QUANT_BITS",
    "KIND_CHAIN",
    "KIND_ERROR_DISTRIBUTION",
    "KIND_MED",
    "KIND_MRED",
    "KIND_MULTIOP",
    "KIND_WCE",
    "KNOWN_METRICS",
    "METRIC_BIAS",
    "METRIC_MED",
    "METRIC_MRED",
    "METRIC_MSE",
    "METRIC_NMED",
    "METRIC_P_ERROR",
    "METRIC_P_SUCCESS",
    "METRIC_WCE",
    "PARALLEL_EXHAUSTIVE",
    "ZOO_EXACT_MAX_WIDTH",
    "ZOO_MC_MAX_WIDTH",
    "ZOO_MRED_EXACT_MAX_WIDTH",
    "ZOO_TRUNCATED_MAX_WIDTH",
    "register_distribution_engines",
    "register_zoo_engines",
    "REGISTRY",
    "StageMatrixCache",
    "StageTransition",
    "analysis_matrices",
    "budget_allows_parallel",
    "cache_stats",
    "clear_cache",
    "configure_cache",
    "configure_segment_cache",
    "disable_segment_cache",
    "get_segment_cache",
    "error_curves",
    "mask_arrays",
    "parallel_exhaustive",
    "register_builtin_engines",
    "resolve_jobs",
    "run",
    "run_batch",
    "run_batch_parallel",
    "select_engine",
    "stage_transition",
]

register_builtin_engines()
