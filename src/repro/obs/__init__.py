"""Observability: metrics, tracing, provenance and structured logging.

The analysis and simulation engines are instrumented with this package:

* :mod:`repro.obs.metrics` -- counters/gauges/histograms/timers behind a
  single enable switch (disabled by default; hot paths pay one bool
  check); bounded memory;
* :mod:`repro.obs.prometheus` -- renders a metrics snapshot in the
  Prometheus text exposition format (``text/plain; version=0.0.4``);
* :mod:`repro.obs.correlate` -- `contextvars`-based request-correlation
  IDs threaded from the serving layer through engine spans;
* :mod:`repro.obs.accesslog` -- structured JSONL event log with
  size-based rotation on the atomic-write primitives in `repro.io`;
* :mod:`repro.obs.slo` -- rolling-window SLO evaluation over the live
  registry (latency quantiles, shed rate, cache hit rate);
* :mod:`repro.obs.tracing` -- `contextvars`-based span trees exportable
  as JSON or Chrome ``trace_event`` files;
* :mod:`repro.obs.provenance` -- run manifests (seed, cells, version,
  git SHA, wall time) attached to expensive results;
* :mod:`repro.obs.log` -- structured logging and deterministic progress
  callbacks for long loops.

Typical library use::

    from repro import obs

    obs.enable()
    with obs.use_registry(obs.MetricsRegistry()) as reg, \\
         obs.use_tracer(obs.Tracer()) as tracer:
        ...  # run analyses
        print(reg.to_json())
        tracer.write_chrome("trace.json")

The CLI exposes the same machinery through ``--verbose``,
``--metrics-out`` and ``--trace`` on every subcommand.
"""

from .log import (
    Progress,
    ProgressCallback,
    configure_logging,
    format_event,
    get_logger,
    log_event,
)
from .accesslog import AccessLog
from .correlate import (
    current_request_id,
    new_request_id,
    use_request_id,
)
from .metrics import (
    DEFAULT_BUCKET_BOUNDS,
    METRICS_FORMAT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    disable,
    enable,
    get_registry,
    inc,
    is_enabled,
    observe,
    observe_histogram,
    set_gauge,
    snapshot_to_json,
    timed,
    use_registry,
)
from .prometheus import render_prometheus
from .slo import SloPolicy, evaluate_slo
from .provenance import (
    MANIFEST_FORMAT,
    RunManifest,
    StopWatch,
    build_manifest,
    git_revision,
    provenance_line,
)
from .tracing import (
    TRACE_FORMAT,
    Span,
    Tracer,
    get_tracer,
    install_tracer,
    trace_span,
    use_tracer,
)

__all__ = [
    # metrics
    "DEFAULT_BUCKET_BOUNDS", "METRICS_FORMAT", "Counter", "Gauge",
    "Histogram", "MetricsRegistry", "Timer", "disable", "enable",
    "get_registry", "inc", "is_enabled", "observe", "observe_histogram",
    "set_gauge", "snapshot_to_json", "timed", "use_registry",
    # exposition / correlation / access log / SLO
    "render_prometheus", "current_request_id", "new_request_id",
    "use_request_id", "AccessLog", "SloPolicy", "evaluate_slo",
    # tracing
    "TRACE_FORMAT", "Span", "Tracer", "get_tracer", "install_tracer",
    "trace_span", "use_tracer",
    # provenance
    "MANIFEST_FORMAT", "RunManifest", "StopWatch", "build_manifest",
    "git_revision", "provenance_line",
    # logging / progress
    "Progress", "ProgressCallback", "configure_logging", "format_event",
    "get_logger", "log_event",
]
