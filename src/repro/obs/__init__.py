"""repro.obs — end-to-end observability: tracing, metrics, trace export.

The paper's argument is carried by *measured* breakdowns (Figure 9's
per-phase bars, the ``cudaprof`` tables); this package gives the
reproduction the same visibility over its own runtime:

* :mod:`repro.obs.span` — a structured span tracer threaded through
  compile (:class:`~repro.runtime.cache.CompileCache`), every
  :mod:`repro.opt` pass, :func:`~repro.runtime.schedule.build_schedule`
  and the executors; near-zero cost when disabled;
* :mod:`repro.obs.metrics` — a labelled counter/gauge/histogram registry
  absorbing the runtime's ad-hoc counters behind one snapshot/diff
  interface, with JSON and Prometheus-style text export;
* :mod:`repro.obs.chrometrace` — a Chrome trace-event / Perfetto
  exporter for any :class:`~repro.runtime.schedule.PipelineSchedule`
  and span tree, with a minimal schema validator.

``repro trace``, ``repro metrics`` and ``repro pipeline --trace`` drive
it from the CLI.
"""

from repro.obs.chrometrace import (
    DEVICE_PID,
    FLEET_HOST_PID,
    FLEET_PID_BASE,
    TRACER_PID,
    assert_valid_chrome_trace,
    chrome_trace,
    engine_busy_from_trace,
    schedule_events,
    tracer_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_cache,
    collect_memory,
    collect_pipeline_report,
    collect_serving_report,
    collect_schedule,
)
from repro.obs.span import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "Span", "Tracer", "NULL_TRACER", "NULL_SPAN", "current_tracer", "use_tracer",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "collect_cache", "collect_memory", "collect_schedule",
    "collect_pipeline_report", "collect_serving_report",
    "chrome_trace", "schedule_events", "tracer_events", "write_chrome_trace",
    "validate_chrome_trace", "assert_valid_chrome_trace",
    "engine_busy_from_trace", "DEVICE_PID", "TRACER_PID",
    "FLEET_PID_BASE", "FLEET_HOST_PID",
]
