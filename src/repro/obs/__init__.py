"""Observability for the SMiLer serving stack.

The paper's performance story (Figs. 7-13) is about *where time goes* —
LB_en pruning ratios, window/group reuse, GP training budgets, kernel
occupancy.  This package makes those quantities first-class at runtime:

* :mod:`repro.obs.registry` — process-wide counters, gauges and
  histograms with labels (and per-series request-id exemplars);
* :mod:`repro.obs.tracing` — nested ``span()`` trees over the request
  path with wall-clock and simulated-GPU-second attribution;
* :mod:`repro.obs.context` — request-id minting and cross-thread
  propagation (always on; the rest of the layer is switch-gated);
* :mod:`repro.obs.events` — a bounded structured event log (request
  lifecycle, degradations, breaker trips, faults, evacuations);
* :mod:`repro.obs.slo` — per-request-class latency objectives and
  rolling error budgets;
* :mod:`repro.obs.chrome` — Chrome trace-event export of one request's
  span tree (open in ``chrome://tracing`` or Perfetto);
* :mod:`repro.obs.exposition` — Prometheus text and JSON snapshots;
* :mod:`repro.obs.hooks` — the hot-path hooks the serving stack calls,
  gated by one global switch (:func:`enable` / :func:`disable`); the
  one table of what they emit (:data:`CATALOG`); the one table of the
  spans they open (:data:`LAYERS`); and the cross-process
  seam a forked worker uses (:func:`fork_reset`, then :func:`drain` on
  its side and :func:`absorb` on the parent's).

Instrumentation is **off by default** and free when off: every hook is a
single flag check.  Typical use::

    from repro import obs
    obs.enable()
    service.forecast("sensor-0")
    print(obs.to_prometheus(obs.get_registry()))
    print(obs.format_span_tree(service.trace_last_request()))
"""

from .chrome import trace_to_chrome, validate_chrome_trace, write_chrome_trace
from .context import begin_request, current_request_id, new_request_id
from .events import EventLog
from .exposition import to_json, to_prometheus
from .hooks import (
    CATALOG,
    LAYERS,
    absorb,
    configure_slo,
    detached_span,
    disable,
    drain,
    enable,
    fork_reset,
    get_event_log,
    get_registry,
    get_slo_tracker,
    get_tracer,
    is_enabled,
    observe_backend_state,
    observe_breaker_transition,
    observe_degraded_forecast,
    observe_evacuation,
    observe_fault_injected,
    observe_forecasts,
    observe_gp_training,
    observe_gpu_memory,
    observe_kernel_launch,
    observe_lane,
    observe_request_end,
    observe_request_start,
    observe_search,
    observe_window_reuse,
    reset,
    served_degraded,
    span,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    MetricsRegistry,
)
from .slo import DEFAULT_SLOS, SLOTarget, SLOTracker
from .tracing import Span, Tracer, format_span_tree

__all__ = [
    "CATALOG",
    "Counter",
    "DEFAULT_SLOS",
    "EventLog",
    "Gauge",
    "Histogram",
    "LAYERS",
    "LabelCardinalityError",
    "MetricsRegistry",
    "SLOTarget",
    "SLOTracker",
    "Span",
    "Tracer",
    "absorb",
    "begin_request",
    "configure_slo",
    "current_request_id",
    "detached_span",
    "disable",
    "drain",
    "enable",
    "fork_reset",
    "format_span_tree",
    "get_event_log",
    "get_registry",
    "get_slo_tracker",
    "get_tracer",
    "is_enabled",
    "new_request_id",
    "observe_backend_state",
    "observe_breaker_transition",
    "observe_degraded_forecast",
    "observe_evacuation",
    "observe_fault_injected",
    "observe_forecasts",
    "observe_gp_training",
    "observe_gpu_memory",
    "observe_kernel_launch",
    "observe_lane",
    "observe_request_end",
    "observe_request_start",
    "observe_search",
    "observe_window_reuse",
    "reset",
    "served_degraded",
    "span",
    "to_json",
    "to_prometheus",
    "trace_to_chrome",
    "validate_chrome_trace",
    "write_chrome_trace",
]
