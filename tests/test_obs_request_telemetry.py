"""Request-lifecycle telemetry: cross-lane trace propagation, the
structured event log, SLO accounting and Chrome trace-event export.

The load-bearing contract (the PR's acceptance criterion): a
``forecast_all`` over >= 8 sensors with ``workers=4`` produces exactly
one connected trace tree whose root owns one child span per lane, the
tree exports to valid Chrome trace-event JSON, and every resulting
:class:`~repro.service.Forecast`, event-log line and degradation/breaker
metric sample carries the same ``request_id`` — on both backend kinds.
"""

import json
import threading

import numpy as np
import pytest

from repro import PredictionService, SMiLerConfig, obs
from repro.backend import make_backend
from repro.obs import context as reqctx
from repro.obs.events import EventLog
from repro.obs.slo import SLOTarget, SLOTracker
from repro.service import Forecast, ServiceConfig

BACKENDS = ("simulated", "native")

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1,), predictor="ar",
)

N_SENSORS = 8
N_BACKENDS = 4


@pytest.fixture(autouse=True)
def _clean_global_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def make_fleet(backend_name: str, workers: int) -> PredictionService:
    service = PredictionService(
        config=CONFIG,
        backends=[make_backend(backend_name) for _ in range(N_BACKENDS)],
        min_history=256,
        service_config=ServiceConfig(
            max_workers=workers, engine="thread" if workers > 1 else None
        ),
    )
    rng = np.random.default_rng(3)
    for i in range(N_SENSORS):
        wave = 50.0 + 10.0 * np.sin(np.arange(300) / 9.0 + i)
        wave += 0.05 * rng.standard_normal(300)
        service.register(f"s{i:02d}", wave)
    return service


class TestConnectedTraceTree:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_forecast_all_one_tree_one_lane_per_shard(self, backend_name):
        obs.enable()
        service = make_fleet(backend_name, workers=4)
        batch = service.forecast_all()
        assert not batch.errors and len(batch) == N_SENSORS

        root = service.trace_last_request()
        assert root is not None and root.name == "forecast_all"
        lanes = [c for c in root.children if c.name == "lane"]
        assert len(lanes) == N_BACKENDS
        assert [lane.attrs["lane"] for lane in lanes] == list(range(N_BACKENDS))
        # Every lane subtree holds its shard's forecast group — one span
        # for the two sensors served stacked — and the tree is connected
        # across worker threads, not four orphan roots.
        for lane in lanes:
            [group] = lane.children
            assert group.name == "forecast"
            assert group.attrs["n_sensors"] == 2
            assert group.attrs["request_id"] == root.attrs["request_id"]
            assert [c.name for c in group.children] == ["search", "predict"]
            assert group.find("ensemble_mix").attrs["horizon"] == 1
            assert [c.name for c in group.find("ensemble_mix").children] == [
                "predict_cells", "mix"
            ]
            assert lane.attrs["queue_wait_s"] >= 0.0
            assert lane.attrs["backend_id"].startswith(backend_name)

        # One request id everywhere: root, lanes, forecasts, events.
        request_id = root.attrs["request_id"]
        assert {lane.attrs["request_id"] for lane in lanes} == {request_id}
        assert {f.request_id for f in batch.values()} == {request_id}

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_sequential_tree_has_same_shape(self, backend_name):
        """One lane per shard — except on the inline engine, where the
        four native shards are one kernel domain: one fused lane that
        names them, serving all eight sensors as one forecast group."""
        obs.enable()
        service = make_fleet(backend_name, workers=1)
        service.forecast_all()
        root = service.trace_last_request()
        assert root.name == "forecast_all"
        lanes = [c for c in root.children if c.name == "lane"]
        if backend_name == "native" and service.engine.name == "inline":
            [lane] = lanes
            assert lane.attrs["shards"] == list(range(N_BACKENDS))
            assert lane.attrs["n_sensors"] == N_SENSORS
            assert [c.name for c in lane.children] == ["forecast"]
            assert lane.children[0].attrs["n_sensors"] == N_SENSORS
            return
        assert len(lanes) == N_BACKENDS
        assert all(
            [c.name for c in lane.children] == ["forecast"]
            and lane.children[0].attrs["n_sensors"] == 2
            for lane in lanes
        )

    def test_single_forecast_keeps_plain_tree(self):
        obs.enable()
        service = make_fleet("native", workers=1)
        forecast = service.forecast("s00")
        root = service.trace_last_request()
        assert root.name == "forecast"
        assert root.attrs["request_id"] == forecast.request_id != ""


class TestRequestIdPropagation:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_events_and_exemplars_carry_the_request_id(self, backend_name):
        obs.enable()
        service = make_fleet(backend_name, workers=4)
        batch = service.forecast_all()
        request_id = service.trace_last_request().attrs["request_id"]
        assert {f.request_id for f in batch.values()} == {request_id}

        events = [
            e for e in obs.get_event_log().tail() if e["request_id"] == request_id
        ]
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "request_start" and kinds[-1] == "request_end"
        end = events[-1]
        assert end["entry_point"] == "forecast_all"
        assert end["n_items"] == N_SENSORS and end["ok"] is True

        registry = obs.get_registry()
        counter = registry.get("smiler_requests_total")
        assert counter.exemplar(**{"class": "forecast_all", "outcome": "ok"}) \
            == {"request_id": request_id}
        hist = registry.get("smiler_lane_queue_wait_seconds")
        for lane in range(N_BACKENDS):
            series = hist.series(lane=lane)
            assert series is not None and series.count == 1
            assert series.exemplar == {"request_id": request_id}

    def test_nested_forecasts_adopt_not_mint(self):
        obs.enable()
        service = make_fleet("native", workers=4)
        service.forecast_all()
        starts = [
            e for e in obs.get_event_log().tail() if e["kind"] == "request_start"
        ]
        # One request_start for the batch; the 8 nested forecast() calls
        # adopted the batch's context instead of minting their own.
        assert [e["entry_point"] for e in starts] == ["forecast_all"]

    def test_ingest_many_is_traced_too(self):
        obs.enable()
        service = make_fleet("native", workers=4)
        service.ingest_many({f"s{i:02d}": 50.0 for i in range(N_SENSORS)})
        root = service.trace_last_request()
        assert root.name == "ingest_many"
        assert sum(c.name == "lane" for c in root.children) == N_BACKENDS
        for lane in root.children:
            assert [c.name for c in lane.children] == ["absorb_many", "search"]
            assert [c.name for c in lane.children[0].children] == [
                "tune", "step_many"
            ]
        end = [
            e for e in obs.get_event_log().tail() if e["kind"] == "request_end"
        ][-1]
        assert end["entry_point"] == "ingest_many"
        assert end["request_id"] == root.attrs["request_id"]

    def test_request_ids_are_minted_even_when_disabled(self):
        service = make_fleet("native", workers=1)
        forecast = service.forecast("s00")
        assert forecast.request_id.startswith("req-")
        # ...but no telemetry was recorded.
        assert len(obs.get_event_log()) == 0
        assert len(obs.get_registry()) == 0

    def test_forecast_equality_ignores_request_id(self):
        kwargs = dict(
            sensor_id="s", horizon=1, mean=1.0, std=0.1,
            interval_low=0.8, interval_high=1.2, level=0.95,
        )
        assert Forecast(**kwargs, request_id="req-a") \
            == Forecast(**kwargs, request_id="req-b")

    def test_scopes_nest_and_reset(self):
        assert reqctx.current_request_id() is None
        with reqctx.begin_request("forecast") as outer:
            assert outer.minted
            assert reqctx.current_request_id() == outer.request_id
            with reqctx.begin_request("forecast") as inner:
                assert not inner.minted
                assert inner.request_id == outer.request_id
        assert reqctx.current_request_id() is None


class TestChromeExport:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_export_validates_and_names_lane_tracks(
        self, backend_name, tmp_path
    ):
        obs.enable()
        service = make_fleet(backend_name, workers=4)
        service.forecast_all()
        root = service.trace_last_request()
        request_id = root.attrs["request_id"]

        path = obs.write_chrome_trace(
            tmp_path / "trace.json", root,
            event_log=obs.get_event_log(), request_id=request_id,
        )
        payload = json.loads(path.read_text())
        obs.validate_chrome_trace(payload)

        tracks = sorted(
            e["args"]["name"] for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        )
        assert tracks[-1] == "main"
        assert [t.split(" ")[0] for t in tracks[:-1]] \
            == [f"lane-{i}" for i in range(N_BACKENDS)]
        # Request lifecycle instants ride along, filtered to the request.
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert {e["args"]["request_id"] for e in instants} == {request_id}

    def test_simulated_gpu_time_exports_async_slices(self):
        obs.enable()
        service = make_fleet("simulated", workers=1)
        service.forecast("s00")
        payload = obs.trace_to_chrome(service.trace_last_request())
        begins = [e for e in payload["traceEvents"] if e["ph"] == "b"]
        ends = [e for e in payload["traceEvents"] if e["ph"] == "e"]
        assert begins and len(begins) == len(ends)
        assert all(e["cat"] == "gpu_sim" for e in begins)
        obs.validate_chrome_trace(payload)

    def test_validator_rejects_malformed_traces(self):
        with pytest.raises(ValueError, match="traceEvents"):
            obs.validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError, match="phase"):
            obs.validate_chrome_trace(
                {"traceEvents": [{"ph": "Z", "name": "x"}]}
            )
        with pytest.raises(ValueError, match="missing fields"):
            obs.validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "ts": 0.0}]}
            )
        with pytest.raises(ValueError, match="finite"):
            obs.validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "X", "name": "x", "ts": -1.0, "dur": 0.0,
                     "pid": 1, "tid": 0},
                ]}
            )
        with pytest.raises(ValueError, match="unbalanced"):
            obs.validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "b", "name": "x", "ts": 0.0, "pid": 1, "tid": 0,
                     "id": 1, "cat": "gpu_sim"},
                ]}
            )


class TestEventLog:
    def test_ring_bound_counts_drops(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("request_start", request_id=f"r{i}")
        assert len(log) == 4
        assert log.dropped_total == 6
        assert log.emitted_total == 10
        assert [e["request_id"] for e in log.tail()] \
            == ["r6", "r7", "r8", "r9"]
        assert [e["request_id"] for e in log.tail(2)] == ["r8", "r9"]

    def test_jsonl_round_trips(self):
        log = EventLog()
        log.emit("degraded", sensor_id="s1", rung="naive")
        lines = log.to_jsonl().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["kind"] == "degraded" and record["rung"] == "naive"

    def test_emit_stamps_bound_request(self):
        log = EventLog()
        with reqctx.begin_request("forecast") as scope:
            event = log.emit("degraded", sensor_id="s")
        assert event["request_id"] == scope.request_id


class TestSLO:
    def test_attainment_and_budget(self):
        tracker = SLOTracker(
            {"forecast": SLOTarget(objective_s=0.1, target=0.9, window=10)}
        )
        for _ in range(9):
            assert tracker.record("forecast", 0.05)
        assert not tracker.record("forecast", 0.5)  # one breach
        assert tracker.attainment("forecast") == pytest.approx(0.9)
        # Budget: (1 - 0.9) * 10 = 1 violation allowed; exactly spent.
        assert tracker.error_budget_remaining("forecast") \
            == pytest.approx(0.0)
        assert not tracker.record("forecast", 0.5)  # overdraw
        assert tracker.error_budget_remaining("forecast") < 0.0

    def test_errors_burn_budget_regardless_of_latency(self):
        tracker = SLOTracker()
        assert not tracker.record("forecast", 0.0, ok=False)

    def test_served_degraded_accounting_flows_from_hook(self):
        obs.enable()
        obs.observe_forecasts(1, [
            (0.0, 1.0, "naive"), (0.0, 1.0, "ar"), (0.0, 1.0, "ensemble"),
        ])
        obs.observe_forecasts(3, [(0.0, 1.0, "naive"), ValueError("lost")])
        assert obs.served_degraded() == {"naive": 2, "ar": 1}
        registry = obs.get_registry()
        counter = registry.get("smiler_forecasts_total")
        assert counter.value(horizon=1, source="naive") == 1.0
        assert counter.value(horizon=1, source="ensemble") == 1.0

    def test_request_end_mirrors_slo_gauges_and_status(self):
        obs.enable()
        obs.configure_slo(
            {"forecast": SLOTarget(objective_s=0.01, target=0.5, window=4)}
        )
        obs.observe_request_end("forecast", "req-1", 0.005)
        obs.observe_request_end("forecast", "req-2", 5.0)  # breach
        registry = obs.get_registry()
        gauge = registry.get("smiler_slo_attainment_ratio")
        assert gauge.value(**{"class": "forecast"}) == pytest.approx(0.5)
        breaches = registry.get("smiler_slo_breaches_total")
        assert breaches.value(**{"class": "forecast"}) == 1.0
        assert breaches.exemplar(**{"class": "forecast"}) \
            == {"request_id": "req-2"}

    def test_status_exposes_slo_and_event_counters(self):
        obs.enable()
        service = make_fleet("native", workers=1)
        service.forecast_all()
        status = service.status()
        assert "forecast_all" in status["slo"]["classes"]
        record = status["slo"]["classes"]["forecast_all"]
        assert record["window_samples"] == 1
        assert status["events"]["emitted_total"] >= 2
        assert status["events"]["dropped_total"] == 0


class TestResilienceEventFlow:
    def test_breaker_and_fault_events_carry_request_context(self):
        obs.enable()
        with reqctx.begin_request("forecast") as scope:
            obs.get_event_log()  # the hooks emit via the global log
            from repro.obs import hooks
            hooks.observe_fault_injected("dtw_verification", "kernel_error")
            hooks.observe_breaker_transition(1, "closed", "open")
            hooks.observe_evacuation(1, 3)
        events = [
            e for e in obs.get_event_log().tail()
            if e["request_id"] == scope.request_id
        ]
        assert [e["kind"] for e in events] \
            == ["fault_injected", "breaker_transition", "evacuation"]
        assert events[1]["backend_id"] == 1
        assert events[2]["n_sensors"] == 3


class TestConcurrentScrape:
    def test_prometheus_render_while_workers_mutate(self):
        """Exposition under concurrent mutation stays parseable with
        label escaping intact (the satellite pinned by this PR)."""
        obs.enable()
        registry = obs.get_registry()
        stop = threading.Event()
        awkward = 'sensor "A"\n'  # exercises quote + newline escaping

        def mutate():
            counter = registry.counter(
                "scrape_probe_total", "f.",
                label_names=("sensor_id", "horizon"),
            )
            hist = registry.histogram(
                "scrape_probe_seconds", "l.",
                label_names=("sensor_id",),
            )
            i = 0
            while not stop.is_set():
                sid = awkward if i % 3 == 0 else f"s{i % 7}"
                counter.inc(
                    sensor_id=sid, horizon=1,
                    exemplar={"request_id": f"req-{i}"},
                )
                hist.observe(0.001 * (i % 50), sensor_id=sid)
                i += 1

        workers = [threading.Thread(target=mutate) for _ in range(4)]
        for w in workers:
            w.start()
        try:
            for _ in range(20):
                text = obs.to_prometheus(registry)
                for line in text.splitlines():
                    assert line.startswith("#") or " " in line
                    # Escaped label values keep every sample on one
                    # parseable line: raw newlines would break this.
                    if '"' in line and not line.startswith("#"):
                        assert line.count("{") == 1 and line.count("}") == 1
                snapshot = obs.to_json(registry)
                json.dumps(snapshot)  # JSON-serialisable mid-mutation
        finally:
            stop.set()
            for w in workers:
                w.join()
        rendered = obs.to_prometheus(registry)
        assert r'sensor \"A\"\n' in rendered
