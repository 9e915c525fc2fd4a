"""The metric catalogue (``repro.obs.CATALOG``) and the cross-process
telemetry seam (``fork_reset`` / ``drain`` / ``absorb``)."""

import ast
import json
import pathlib
import re

import pytest

from repro import obs
from repro.obs import hooks
from repro.obs.events import EventLog
from repro.obs.registry import DEFAULT_BUCKETS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

SIM_SECONDS = (
    1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1, 1.0,
)
LANE_SECONDS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)
LATENCY = tuple(DEFAULT_BUCKETS)

#: Golden: (name, kind, labels, buckets) of everything obs emits.
GOLDEN = [
    ("smiler_backend_evacuations_total", "counter", ("backend",), None),
    ("smiler_backend_state", "gauge", ("backend",), None),
    ("smiler_breaker_transitions_total", "counter",
     ("backend", "from_state", "to_state"), None),
    ("smiler_faults_injected_total", "counter", ("operation", "kind"), None),
    ("smiler_forecasts_total", "counter", ("horizon", "source"), None),
    ("smiler_gp_cg_iterations_total", "counter", (), None),
    ("smiler_gp_objective_evaluations_total", "counter", ("kind",), None),
    ("smiler_gp_train_calls_total", "counter", ("converged",), None),
    ("smiler_gpu_kernel_blocks_total", "counter", ("kernel",), None),
    ("smiler_gpu_kernel_launches_total", "counter", ("kernel",), None),
    ("smiler_gpu_kernel_sim_seconds", "histogram", ("kernel",), SIM_SECONDS),
    ("smiler_gpu_memory_allocated_bytes", "gauge", ("backend_id",), None),
    ("smiler_lane_execute_seconds", "histogram", ("lane",), LANE_SECONDS),
    ("smiler_lane_queue_wait_seconds", "histogram", ("lane",), LANE_SECONDS),
    ("smiler_lane_sensors_total", "counter", ("lane", "backend"), None),
    ("smiler_request_latency_seconds", "histogram", ("class",), LATENCY),
    ("smiler_requests_total", "counter", ("class", "outcome"), None),
    ("smiler_search_candidates_pruned_total", "counter",
     ("item_length",), None),
    ("smiler_search_candidates_total", "counter", ("item_length",), None),
    ("smiler_search_candidates_verified_total", "counter",
     ("item_length",), None),
    ("smiler_search_pruned_tier_total", "counter",
     ("item_length", "tier"), None),
    ("smiler_search_queries_total", "counter", ("item_length",), None),
    ("smiler_sensors_evacuated_total", "counter", (), None),
    ("smiler_slo_attainment_ratio", "gauge", ("class",), None),
    ("smiler_slo_breaches_total", "counter", ("class",), None),
    ("smiler_slo_error_budget_remaining_ratio", "gauge", ("class",), None),
    ("smiler_window_index_lbec_columns_recomputed_total", "counter", (),
     None),
    ("smiler_window_index_rows_total", "counter", ("outcome",), None),
]


@pytest.fixture(autouse=True)
def _clean_global_obs(monkeypatch):
    # Registered with monkeypatch so a test that swaps the sinks
    # (fork_reset, a small event log) hands the originals back.
    for sink in ("_registry", "_tracer", "_events", "_slo"):
        monkeypatch.setattr(hooks, sink, getattr(hooks, sink))
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


#: Stands for the running request's id in :data:`HOOK_CALLS`.
REQUEST_ID = object()

#: One call per hook, with arguments under which every row it owns fires
#: (the request ends failed and over budget, so the breach counter does).
HOOK_CALLS = {
    "observe_kernel_launch": ("dtw_verify", 1e-5, 4),
    "observe_gpu_memory": ("simulated-0", 4096),
    "observe_search": (16, 100, 10, 12, 80, 10),
    "observe_window_reuse": (1, 2, 3, 1),
    "observe_forecasts": (1, [(0.0, 1.0, "ensemble"), (0.0, 1.0, "ar")]),
    "observe_gp_training": (4, 1, 5, 24, 6),
    "observe_fault_injected": ("dtw_verification", "kernel_error"),
    "observe_degraded_forecast": ("s0", "ar"),
    "observe_backend_state": (0, "open"),
    "observe_breaker_transition": (0, "closed", "open"),
    "observe_evacuation": (0, 3),
    "observe_request_start": ("forecast", REQUEST_ID),
    "observe_request_end": ("forecast", REQUEST_ID, 9.0, False),
    "observe_lane": (0, 0, 1e-4, 1e-3, 3),
}


def drive_every_hook() -> str:
    """Run :data:`HOOK_CALLS` under one request; returns its id."""
    with obs.begin_request("forecast") as scope:
        for name, args in HOOK_CALLS.items():
            getattr(obs, name)(
                *(scope.request_id if a is REQUEST_ID else a for a in args)
            )
    return scope.request_id


class TestCatalog:
    def test_table_matches_the_golden(self):
        rows = [
            (spec.name, spec.kind, spec.labels,
             None if spec.buckets is None else tuple(spec.buckets))
            for spec in obs.CATALOG.values()
        ]
        assert sorted(rows) == GOLDEN
        assert all(
            (spec.buckets is not None) == (spec.kind == "histogram")
            for spec in obs.CATALOG.values()
        )

    def test_hooks_emit_exactly_the_table(self):
        """Every row is emitted by some hook, and everything a run leaves
        in the registry is a row with the declared kind, labels, help
        and buckets."""
        assert sorted(HOOK_CALLS) == sorted(
            n for n in hooks.__all__ if n.startswith("observe_")
        )
        obs.enable()
        drive_every_hook()
        emitted = {m.name: m for m in obs.get_registry().metrics()}
        assert sorted(emitted) == sorted(obs.CATALOG)
        for name, metric in emitted.items():
            spec = obs.CATALOG[name]
            assert (metric.kind, metric.label_names, metric.help) == (
                spec.kind, spec.labels, spec.help
            )
            assert getattr(metric, "bounds", None) == spec.buckets
            assert metric.series_keys(), name  # a value, not just a header

    def test_registry_holds_only_what_ran(self):
        obs.enable()
        obs.observe_gpu_memory("simulated-0", 1)
        assert [m.name for m in obs.get_registry().metrics()] == [
            "smiler_gpu_memory_allocated_bytes"
        ]
        obs.reset()  # mid-run: hooks resolve through the live registry
        obs.observe_gp_training(0, 1, 2, 9, 3)
        registry = obs.get_registry()
        assert sorted(m.name for m in registry.metrics()) == [
            "smiler_gp_cg_iterations_total",
            "smiler_gp_objective_evaluations_total",
            "smiler_gp_train_calls_total",
        ]
        evaluated = registry.get("smiler_gp_objective_evaluations_total")
        assert evaluated.value(kind="value") == 9
        assert evaluated.value(kind="gradient") == 3

    def test_each_name_is_spelled_once_in_the_source(self):
        """No ``"smiler_..."`` literal outside the table: a metric's
        name, like its type and labels, is written down in one place."""
        literal = re.compile(r"""["'](smiler_[a-z_]+)["']""")
        # The harness's two non-metric literals (a function, a table key).
        not_metrics = {"smiler_config", "smiler_gp_mae"}
        found: dict[str, list[str]] = {}
        for path in sorted(SRC.rglob("*.py")):
            for name in literal.findall(path.read_text()):
                if name not in not_metrics:
                    found.setdefault(name, []).append(
                        path.relative_to(SRC).as_posix()
                    )
        assert found == {name: ["obs/hooks.py"] for name in obs.CATALOG}


class TestLayerTable:
    def test_every_span_the_source_opens_is_one_row(self):
        """The spans ``src/`` opens by name — and the batch requests'
        roots, named by their ``run_batch`` entry point — are exactly the
        rows of :data:`repro.obs.LAYERS`, each named once, a parent
        listed before its children."""
        names = [name for name, _ in obs.LAYERS]
        assert len(set(names)) == len(names)
        for at, (name, parent) in enumerate(obs.LAYERS):
            assert parent is None or parent in names[:at], name
        opened = set()
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.Call) and node.args):
                    continue
                called = getattr(node.func, "attr", getattr(node.func, "id", ""))
                first = node.args[0]
                if called in ("span", "detached_span", "run_batch") and (
                    isinstance(first, ast.Constant) and isinstance(first.value, str)
                ):
                    opened.add(first.value)
        assert opened == set(names)


class TestSeam:
    def test_drain_absorb_round_trip(self):
        obs.enable()
        worker_request = drive_every_hook()
        delta = obs.drain()
        assert json.loads(json.dumps(delta)) == delta  # crosses as JSON
        # Values only: no help, label names or buckets ride along.
        assert sorted(delta["metrics"]) == sorted(obs.CATALOG)
        for rows in delta["metrics"].values():
            for row in rows:
                assert set(row) <= {
                    "labels", "exemplar", "value",
                    "bucket_counts", "sum", "count",
                }
        assert obs.drain() == {"metrics": {}, "events": [], "dropped": 0}

        # The receiving side has values of its own.
        obs.observe_forecasts(1, [(0.0, 1.0, "ar"), ValueError("lost")])
        obs.observe_gpu_memory("simulated-0", 7)
        obs.observe_lane(0, 0, 1e-4, 0.02, 1)
        obs.observe_degraded_forecast("s1", "ar")
        obs.absorb(delta)
        registry = obs.get_registry()
        # Counters add ...
        forecasts = registry.get("smiler_forecasts_total")
        assert forecasts.value(horizon=1, source="ar") == 2
        assert forecasts.value(horizon=1, source="ensemble") == 1
        # ... gauges last-write-win ...
        memory = registry.get("smiler_gpu_memory_allocated_bytes")
        assert memory.value(backend_id="simulated-0") == 4096
        # ... histograms merge bucket-wise ...
        execute = registry.get("smiler_lane_execute_seconds")
        series = execute.series(lane=0)
        assert (series.count, series.sum) == (2, pytest.approx(0.021))
        by_bound = dict(zip(execute.bounds, series.bucket_counts))
        assert (by_bound[1e-3], by_bound[2.5e-2]) == (1, 1)
        # ... and exemplars, events and rung tallies survive the hop.
        assert forecasts.exemplar(horizon=1, source="ensemble") == {
            "request_id": worker_request
        }
        assert series.exemplar == {"request_id": worker_request}
        assert obs.served_degraded() == {"ar": 2}
        kinds = [e["kind"] for e in obs.get_event_log().tail()]
        assert kinds == ["degraded"] + [e["kind"] for e in delta["events"]]
        assert worker_request in {
            e["request_id"] for e in obs.get_event_log().tail()
        }

    def test_dropped_event_count_survives(self, monkeypatch):
        monkeypatch.setattr(hooks, "_events", EventLog(capacity=2))
        obs.enable()
        for i in range(5):
            obs.observe_request_start("forecast", f"req-{i}")
        delta = obs.drain()
        assert (len(delta["events"]), delta["dropped"]) == (2, 3)
        obs.absorb(delta)
        log = obs.get_event_log()
        assert (len(log), log.dropped_total, log.emitted_total) == (2, 3, 5)

    def test_absorb_of_an_unknown_name_raises(self):
        delta = obs.drain()
        delta["metrics"]["smiler_not_in_the_table_total"] = [
            {"labels": [], "value": 1.0, "exemplar": None}
        ]
        with pytest.raises(KeyError, match="smiler_not_in_the_table_total"):
            obs.absorb(delta)

    def test_fork_reset_keeps_capacity_and_switch(self, monkeypatch):
        monkeypatch.setattr(hooks, "_events", EventLog(capacity=7))
        obs.enable()
        drive_every_hook()
        before = (
            obs.get_registry(), obs.get_tracer(),
            obs.get_event_log(), obs.get_slo_tracker(),
        )
        obs.fork_reset()
        after = (
            obs.get_registry(), obs.get_tracer(),
            obs.get_event_log(), obs.get_slo_tracker(),
        )
        assert all(new is not old for new, old in zip(after, before))
        assert obs.is_enabled()
        assert obs.get_event_log().capacity == 7
        assert len(obs.get_registry()) == 0 and len(obs.get_event_log()) == 0
        assert obs.served_degraded() == {}
        obs.observe_gpu_memory("simulated-0", 1)  # hooks write to the fresh sinks
        assert "smiler_gpu_memory_allocated_bytes" in obs.get_registry()
        assert len(before[0]) == len(obs.CATALOG)  # the old one is untouched
