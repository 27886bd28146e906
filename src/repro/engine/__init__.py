"""Unified, cached, batch-first analysis engine.

This package is the single front door to every analysis and simulation
backend in the library:

* :mod:`repro.engine.request` -- the :class:`AnalysisRequest` /
  :class:`AnalysisResult` protocol all backends speak;
* :mod:`repro.engine.registry` -- capability metadata, abstract cost
  estimates and ``degrades_to`` rungs per backend, the data
  :func:`select_engine` walks;
* :mod:`repro.engine.diskcache` -- the opt-in persistent result tier:
  an in-memory result LRU over a content-addressed on-disk store shared
  across processes and restarts (``configure_result_cache``);
* :mod:`repro.engine.segcache` -- :class:`SegmentCache`, a library
  memory-LRU of exact segment transfer matrices
  (:mod:`repro.core.transfer`) for prefix-sharing exact sweeps; the
  executor never consults it;
* :mod:`repro.engine.executor` -- :func:`run`, :func:`run_batch` and
  :func:`error_curves`, instrumented through :mod:`repro.obs`.

Scalar and batched chain answers come from one stage kernel
(:mod:`repro.core.vectorized`), so ``run`` and ``run_batch`` agree bit
for bit; :func:`clear_cache` empties the truth-table-keyed mask memos
behind it (cold-start benchmarks and tests).

Typical use::

    from repro import engine

    result = engine.run("axa3", 8, p_a=0.3)        # analytical
    result = engine.run("axa3", 24, simulate=True)  # routed simulation
    curves = engine.error_curves("axa2", 16)

    request = engine.AnalysisRequest.zoo("gear:16:4:4")  # zoo-dp
    result = engine.run(request)

Layering rule: ``core/`` never imports this package; the engine sits on
top of ``core``, ``simulation``, ``baselines`` and ``multiop`` and is
in turn used by ``runtime.validation``, ``explore``, ``circuits``,
``gear``, ``apps`` and the CLI.
"""

from ..core.matrices import clear_memos as clear_cache
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
from .segcache import SegmentCache
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
    MC_MAX_WIDTH,
    QUANT_BITS,
    register_distribution_engines,
)
from .executor import error_curves, run, run_batch, select_engine

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "DEFAULT_MEMORY_ENTRIES",
    "DiskResultStore",
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
    "OPS_PER_SECOND",
    "DISTRIBUTION_KINDS",
    "DIST_EXACT_MAX_WIDTH",
    "DIST_TRUNCATED_MAX_WIDTH",
    "MC_MAX_WIDTH",
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
    "register_distribution_engines",
    "REGISTRY",
    "clear_cache",
    "error_curves",
    "register_builtin_engines",
    "run",
    "run_batch",
    "select_engine",
]

register_builtin_engines()
