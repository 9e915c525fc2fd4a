"""Hot-path instrumentation hooks gated by one global switch.

Every instrumented call site in the serving stack funnels through this
module.  The contract that keeps tier-1 tests and benchmarks honest:

* **Disabled (the default)** — each hook is a single module-global flag
  check followed by an immediate return (or, for :func:`span`, the
  shared no-op context manager).  No dicts, no label tuples, no objects
  are allocated on the disabled path.
* **Enabled** — hooks record into the process-wide
  :class:`~repro.obs.registry.MetricsRegistry` and
  :class:`~repro.obs.tracing.Tracer` returned by :func:`get_registry`
  and :func:`get_tracer`.

What gets emitted is declared once, in the :data:`CATALOG` table below:
one :class:`MetricSpec` row per metric (name, kind, label names, help,
buckets).  Every hook resolves its rows through :func:`_live`,
``docs/observability.md`` mirrors the table (``tests/test_docs.py``
compares the two row for row), and the cross-process seam —
:func:`fork_reset`, :func:`drain`, :func:`absorb` — ships values only,
because the receiving process declares from its own copy of the table.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

from . import context as reqctx
from .events import EventLog
from .registry import DEFAULT_BUCKETS, MetricsRegistry
from .slo import SLOTarget, SLOTracker
from .tracing import Span, Tracer

__all__ = [
    "CATALOG",
    "MetricSpec",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "fork_reset",
    "drain",
    "absorb",
    "get_registry",
    "get_tracer",
    "get_event_log",
    "get_slo_tracker",
    "configure_slo",
    "span",
    "detached_span",
    "observe_kernel_launch",
    "observe_gpu_memory",
    "observe_search",
    "observe_window_reuse",
    "observe_forecast",
    "observe_gp_training",
    "observe_fault_injected",
    "observe_degraded_forecast",
    "observe_backend_state",
    "observe_breaker_transition",
    "observe_evacuation",
    "observe_request_start",
    "observe_request_end",
    "observe_lane",
]

#: Numeric encoding of circuit-breaker states for the backend_state gauge.
_BREAKER_STATE_CODES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}

#: Simulated-GPU-seconds buckets (kernel launches are micro- to
#: milli-second scale under the cost model).
_SIM_SECONDS_BUCKETS = (
    1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1, 1.0,
)
#: Device-cycle buckets (decades from 1k to 10G cycles).
_CYCLE_BUCKETS = tuple(10.0 ** e for e in range(3, 11))

#: Lane queue-wait/execute buckets — sub-millisecond to seconds.
_LANE_SECONDS_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


# ---------------------------------------------------------- metric catalogue
class MetricSpec(NamedTuple):
    """One catalogue row: everything a metric's declaration says."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: tuple[str, ...]
    help: str
    buckets: tuple[float, ...] | None = None  # histograms only


#: Every metric this package emits, by name — the one declaration site.
CATALOG: dict[str, MetricSpec] = {
    row[0]: MetricSpec(*row)
    for row in (
        ("smiler_gpu_kernel_launches_total", "counter", ("kernel",),
         "Simulated kernel launches by kernel name."),
        ("smiler_gpu_kernel_blocks_total", "counter", ("kernel",),
         "Thread blocks scheduled, by kernel name."),
        ("smiler_gpu_kernel_sim_seconds", "histogram", ("kernel",),
         "Simulated duration of one kernel launch.", _SIM_SECONDS_BUCKETS),
        ("smiler_gpu_kernel_cycles", "histogram", ("kernel",),
         "Simulated core-cycles of one kernel launch.", _CYCLE_BUCKETS),
        ("smiler_gpu_memory_allocated_bytes", "gauge", (),
         "Bytes currently allocated in the backend memory ledger."),
        ("smiler_search_queries_total", "counter", ("item_length",),
         "Suffix kNN item-query searches executed."),
        ("smiler_search_candidates_total", "counter", ("item_length",),
         "Candidate segments considered, by item length."),
        ("smiler_search_candidates_pruned_total", "counter", ("item_length",),
         "Candidates pruned by the lower-bound cascade, by item length."),
        ("smiler_search_candidates_verified_total", "counter",
         ("item_length",),
         "Candidates whose true DTW was computed (seeds included), by "
         "item length."),
        ("smiler_search_pruned_tier_total", "counter", ("item_length", "tier"),
         "Candidates killed per cascade tier: kim (LB_Kim), window (LB_w)."),
        ("smiler_window_index_rows_total", "counter", ("outcome",),
         "Window-index posting-list rows by outcome: built_full (from "
         "scratch), recomputed_lbeq (envelope refresh only), reused "
         "(survived untouched)."),
        ("smiler_window_index_lbec_columns_recomputed_total", "counter", (),
         "Trailing LB_EC columns recomputed after appends."),
        ("smiler_forecasts_total", "counter", ("sensor_id", "horizon"),
         "Forecast requests served."),
        ("smiler_forecast_latency_seconds", "histogram", ("sensor_id",),
         "End-to-end forecast latency (wall-clock).", DEFAULT_BUCKETS),
        ("smiler_forecast_degraded_total", "counter", ("sensor_id", "source"),
         "Forecasts served by a degraded rung, by sensor and rung."),
        ("smiler_slo_served_degraded_total", "counter", ("rung",),
         "Forecasts served degraded, by ladder rung (SLO accounting)."),
        ("smiler_requests_total", "counter", ("class", "outcome"),
         "Service requests completed, by entry point and outcome."),
        ("smiler_request_latency_seconds", "histogram", ("class",),
         "End-to-end request latency by entry point.", DEFAULT_BUCKETS),
        ("smiler_slo_breaches_total", "counter", ("class",),
         "Requests that missed their class SLO (error or over budget)."),
        ("smiler_slo_attainment_ratio", "gauge", ("class",),
         "Fraction of the rolling window meeting the class SLO."),
        ("smiler_slo_error_budget_remaining_ratio", "gauge", ("class",),
         "Unspent fraction of the rolling-window violation budget "
         "(negative = overdrawn)."),
        ("smiler_lane_queue_wait_seconds", "histogram", ("lane",),
         "Time a lane's work waited between submit and first execution.",
         _LANE_SECONDS_BUCKETS),
        ("smiler_lane_execute_seconds", "histogram", ("lane",),
         "Time a lane spent executing its backend shard's work.",
         _LANE_SECONDS_BUCKETS),
        ("smiler_lane_sensors_total", "counter", ("lane", "backend"),
         "Sensors processed per lane."),
        ("smiler_faults_injected_total", "counter", ("operation", "kind"),
         "Faults injected by FaultInjectingBackend, by operation and kind."),
        ("smiler_backend_state", "gauge", ("backend",),
         "Circuit-breaker state per backend: 0=closed, 1=half_open, 2=open."),
        ("smiler_breaker_transitions_total", "counter",
         ("backend", "from_state", "to_state"),
         "Circuit-breaker state transitions, by backend and edge."),
        ("smiler_backend_evacuations_total", "counter", ("backend",),
         "Backend evacuations triggered by health failover."),
        ("smiler_sensors_evacuated_total", "counter", (),
         "Sensors re-admitted onto healthy backends by evacuations."),
        ("smiler_gp_train_calls_total", "counter", ("converged",),
         "GP hyperparameter training runs, by convergence outcome."),
        ("smiler_gp_cg_iterations_total", "counter", (),
         "Conjugate-gradient iterations spent on GP training."),
        ("smiler_gp_objective_evaluations_total", "counter", ("kind",),
         "LOO objective evaluations by GP training: values, and the "
         "gradients taken at accepted line-search steps."),
    )
}

#: The rows as attributes, named without the ``smiler_`` prefix: how the
#: hooks below refer to them, so each name is spelled exactly once.
_M = SimpleNamespace(
    **{name.removeprefix("smiler_"): spec for name, spec in CATALOG.items()}
)

_enabled = False
_registry = MetricsRegistry()
_tracer = Tracer()
_events = EventLog()
_slo = SLOTracker()


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


# ------------------------------------------------------------------ switch
def enable() -> None:
    """Turn instrumentation on process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off (hooks become flag-check no-ops)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether instrumentation is currently on."""
    return _enabled


def reset() -> None:
    """Clear all collected metrics, traces, events and SLO windows (the
    switch and SLO objectives are untouched)."""
    _registry.reset()
    _tracer.reset()
    _events.clear()
    _slo.reset()


def fork_reset() -> None:
    """Replace every sink with a fresh one, in a forked child.

    ``fork`` copies the sinks' locks in whatever state some *other*
    parent thread held them, and inherited values would double-count
    once the child's deltas are absorbed.  The event log keeps its
    capacity; the switch and everything outside this package do not move.
    """
    global _registry, _tracer, _events, _slo
    _registry = MetricsRegistry()
    _tracer = Tracer()
    _events = EventLog(capacity=_events.capacity)
    _slo = SLOTracker()


def drain() -> dict:
    """Dump-and-reset this process's telemetry as one mergeable delta.

    JSON-safe: metric *values* (no declarations — the receiver has the
    catalogue), retained events and their dropped count, degraded-rung
    tallies.  Spans are not part of it; a lane ships its own subtree.
    """
    delta = {
        "metrics": _registry.dump_state(),
        "events": _events.tail(),
        "dropped": _events.dropped_total,
        "degraded": _slo.drain_degraded(),
    }
    _registry.reset()
    _events.clear()
    return delta


def absorb(delta: dict) -> None:
    """Fold another process's :func:`drain` delta into this one's sinks.

    Metrics are declared from *this* process's catalogue; a name it does
    not hold raises ``KeyError`` (both sides are forks of one program).
    """
    for name in delta["metrics"]:
        _live(CATALOG[name])
    _registry.merge_state(delta["metrics"])
    _events.absorb(delta["events"], delta["dropped"])
    _slo.absorb_degraded(delta["degraded"])


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


def get_event_log() -> EventLog:
    """The process-wide structured event log (ring buffer)."""
    return _events


def get_slo_tracker() -> SLOTracker:
    """The process-wide SLO tracker."""
    return _slo


def configure_slo(objectives: dict[str, SLOTarget]) -> None:
    """Replace/extend the per-request-class SLO objectives."""
    _slo.configure(objectives)


# ----------------------------------------------------------------- tracing
def span(name: str, device=None) -> "Span | _NoopSpan":
    """Open a pipeline span (no-op singleton when disabled)."""
    if not _enabled:
        return _NOOP_SPAN
    return _tracer.span(name, device)


def detached_span(name: str, device=None) -> "Span | _NoopSpan":
    """Open a worker-lane span: roots its own thread's stack, never
    claims ``last_root``; the parent adopts it after the lane joins
    (no-op singleton when disabled)."""
    if not _enabled:
        return _NOOP_SPAN
    return _tracer.detached_span(name, device)


# ----------------------------------------------------------------- metrics
def _live(spec: MetricSpec):
    """``spec``'s metric in the *live* registry, declared on first use.

    Resolved on every call, never cached: :func:`reset` empties the
    registry and :func:`fork_reset` swaps it under running hooks, and it
    must hold only what actually ran.
    """
    if spec.kind == "counter":
        return _registry.counter(spec.name, spec.help, spec.labels)
    if spec.kind == "gauge":
        return _registry.gauge(spec.name, spec.help, spec.labels)
    return _registry.histogram(
        spec.name, spec.help, spec.labels, buckets=spec.buckets
    )


def _request_exemplar() -> dict[str, str] | None:
    """Exemplar naming the request bound to the calling thread, if any."""
    request_id = reqctx.current_request_id()
    return None if request_id is None else {"request_id": request_id}


# ------------------------------------------------------------- gpu kernels
def observe_kernel_launch(
    kernel: str, duration_s: float, n_blocks: int, cycles: float
) -> None:
    """Record one simulated kernel launch (called by the cost model)."""
    if not _enabled:
        return
    _live(_M.gpu_kernel_launches_total).inc(kernel=kernel)
    _live(_M.gpu_kernel_blocks_total).inc(n_blocks, kernel=kernel)
    _live(_M.gpu_kernel_sim_seconds).observe(duration_s, kernel=kernel)
    _live(_M.gpu_kernel_cycles).observe(cycles, kernel=kernel)


def observe_gpu_memory(allocated_bytes: int) -> None:
    """Track the device-memory ledger after a malloc/free."""
    if not _enabled:
        return
    _live(_M.gpu_memory_allocated_bytes).set(allocated_bytes)


# ------------------------------------------------------------------ search
def observe_search(
    item_length: int,
    candidates_total: int,
    candidates_unfiltered: int,
    candidates_verified: int,
    pruned_kim: int = 0,
    pruned_window: int = 0,
    queries: int = 1,
) -> None:
    """Record the pruning effectiveness of ``queries`` Suffix kNN
    searches of one item length — a fused lane reports once, with its
    sensors' counts summed.

    ``candidates_verified`` is the number of candidates whose true DTW
    was computed — it can exceed ``candidates_unfiltered`` because
    threshold seeds are verified even when their bound is above ``tau``.
    The ``pruned_*`` counts attribute kills to individual cascade tiers.
    """
    if not _enabled:
        return
    _live(_M.search_queries_total).inc(queries, item_length=item_length)
    _live(_M.search_candidates_total).inc(
        candidates_total, item_length=item_length
    )
    _live(_M.search_candidates_pruned_total).inc(
        candidates_total - candidates_unfiltered, item_length=item_length
    )
    _live(_M.search_candidates_verified_total).inc(
        candidates_verified, item_length=item_length
    )
    for tier, count in (("kim", pruned_kim), ("window", pruned_window)):
        if count:
            _live(_M.search_pruned_tier_total).inc(
                count, item_length=item_length, tier=tier
            )


def observe_window_reuse(
    rows_built_full: int = 0,
    rows_recomputed_lbeq: int = 0,
    rows_reused: int = 0,
    columns_recomputed_lbec: int = 0,
) -> None:
    """Record window-index posting-list work deltas (Remark 1 reuse)."""
    if not _enabled:
        return
    counter = _live(_M.window_index_rows_total)
    if rows_built_full:
        counter.inc(rows_built_full, outcome="built_full")
    if rows_recomputed_lbeq:
        counter.inc(rows_recomputed_lbeq, outcome="recomputed_lbeq")
    if rows_reused:
        counter.inc(rows_reused, outcome="reused")
    if columns_recomputed_lbec:
        _live(_M.window_index_lbec_columns_recomputed_total).inc(
            columns_recomputed_lbec
        )


# ----------------------------------------------------------------- serving
def observe_forecast(sensor_id: str, horizon: int, latency_s: float) -> None:
    """Record one served forecast and its end-to-end latency."""
    if not _enabled:
        return
    exemplar = _request_exemplar()
    _live(_M.forecasts_total).inc(
        sensor_id=sensor_id, horizon=horizon, exemplar=exemplar
    )
    _live(_M.forecast_latency_seconds).observe(
        latency_s, sensor_id=sensor_id, exemplar=exemplar
    )


def observe_degraded_forecast(sensor_id: str, source: str) -> None:
    """Record one forecast served below the full-ensemble rung."""
    if not _enabled:
        return
    exemplar = _request_exemplar()
    _live(_M.forecast_degraded_total).inc(
        sensor_id=sensor_id, source=source, exemplar=exemplar
    )
    _slo.record_degraded(source)
    _live(_M.slo_served_degraded_total).inc(rung=source, exemplar=exemplar)
    _events.emit("degraded", sensor_id=sensor_id, rung=source)


# ---------------------------------------------------------- request lifecycle
def observe_request_start(
    entry_point: str, request_id: str, n_items: int = 1
) -> None:
    """Record one service request entering (event-log line only —
    metrics land at the end, when the latency is known)."""
    if not _enabled:
        return
    _events.emit(
        "request_start",
        request_id=request_id,
        entry_point=entry_point,
        n_items=n_items,
    )


def observe_request_end(
    entry_point: str,
    request_id: str,
    latency_s: float,
    ok: bool = True,
    n_items: int = 1,
    n_errors: int = 0,
) -> None:
    """Record one service request completing: latency histogram, SLO
    window sample, attainment/error-budget gauges and the end event."""
    if not _enabled:
        return
    exemplar = {"request_id": request_id}
    by_class = {"class": entry_point}  # a keyword: cannot be spelled inline
    _live(_M.requests_total).inc(
        outcome="ok" if ok else "error", exemplar=exemplar, **by_class
    )
    _live(_M.request_latency_seconds).observe(
        latency_s, exemplar=exemplar, **by_class
    )
    met = _slo.record(entry_point, latency_s, ok=ok)
    if not met:
        _live(_M.slo_breaches_total).inc(exemplar=exemplar, **by_class)
    _live(_M.slo_attainment_ratio).set(
        _slo.attainment(entry_point), **by_class
    )
    _live(_M.slo_error_budget_remaining_ratio).set(
        _slo.error_budget_remaining(entry_point), **by_class
    )
    _events.emit(
        "request_end",
        request_id=request_id,
        entry_point=entry_point,
        latency_s=latency_s,
        ok=ok,
        slo_met=met,
        n_items=n_items,
        n_errors=n_errors,
    )


def observe_lane(
    lane: int,
    backend_index: int,
    queue_wait_s: float,
    execute_s: float,
    n_sensors: int,
) -> None:
    """Record one worker lane's queue-wait vs execute attribution."""
    if not _enabled:
        return
    exemplar = _request_exemplar()
    _live(_M.lane_queue_wait_seconds).observe(
        queue_wait_s, lane=lane, exemplar=exemplar
    )
    _live(_M.lane_execute_seconds).observe(
        execute_s, lane=lane, exemplar=exemplar
    )
    _live(_M.lane_sensors_total).inc(
        n_sensors, lane=lane, backend=backend_index
    )


# -------------------------------------------------------------- resilience
def observe_fault_injected(operation: str, kind: str) -> None:
    """Record one injected backend fault (called by the fault layer)."""
    if not _enabled:
        return
    _live(_M.faults_injected_total).inc(operation=operation, kind=kind)
    _events.emit("fault_injected", operation=operation, fault_kind=kind)


def observe_backend_state(backend_index: int, state: str) -> None:
    """Track one backend's circuit-breaker state (0=closed, 1=half_open,
    2=open)."""
    if not _enabled:
        return
    _live(_M.backend_state).set(
        _BREAKER_STATE_CODES.get(state, -1.0), backend=backend_index
    )


def observe_breaker_transition(
    backend_index: int, old_state: str, new_state: str
) -> None:
    """Record one circuit-breaker transition as a counter and a span."""
    if not _enabled:
        return
    _live(_M.breaker_transitions_total).inc(
        backend=backend_index, from_state=old_state, to_state=new_state
    )
    with _tracer.span("breaker_transition") as sp:
        sp.attrs["backend"] = backend_index
        sp.attrs["from_state"] = old_state
        sp.attrs["to_state"] = new_state
    _events.emit(
        "breaker_transition",
        backend_id=backend_index,
        from_state=old_state,
        to_state=new_state,
    )


def observe_evacuation(backend_index: int, n_sensors: int) -> None:
    """Record one backend evacuation and how many sensors it moved."""
    if not _enabled:
        return
    _live(_M.backend_evacuations_total).inc(backend=backend_index)
    _live(_M.sensors_evacuated_total).inc(n_sensors)
    _events.emit("evacuation", backend_id=backend_index, n_sensors=n_sensors)


def observe_gp_training(
    iterations: int, converged: bool, evaluations: int, gradient_evaluations: int
) -> None:
    """Record one online GP hyperparameter fit."""
    if not _enabled:
        return
    _live(_M.gp_train_calls_total).inc(converged=converged)
    _live(_M.gp_cg_iterations_total).inc(iterations)
    evaluated = _live(_M.gp_objective_evaluations_total)
    evaluated.inc(evaluations, kind="value")
    evaluated.inc(gradient_evaluations, kind="gradient")
