"""Differential tests: every execution engine serves identical bits.

The engine contract (``docs/architecture.md``, "Execution engines") is
that ``inline``, ``thread`` and ``process`` are *indistinguishable*
through the public API on a healthy pool: the same
:class:`~repro.service.Forecast` floats, the same
:attr:`~repro.service.ForecastBatch.errors` (type and message), the same
per-backend simulated-time ledgers.  These tests pin that contract
differentially — identically-constructed services, one per engine,
driven through the same 52-sensor / 4-backend workload — then exercise
the process engine's crash semantics (a SIGKILLed shard worker must
evacuate, never hang, and its sensors come back with every acknowledged
reading, none twice) and its flush-on-close telemetry drain.
"""

import gc
import json
import os
import signal
import time
import weakref

import numpy as np
import pytest

from repro import obs
from repro.backend import BACKEND_NAMES, BreakerConfig, make_backend
from repro.backend.simulated import SimulatedGpuBackend
from repro.core import (
    SMiLer, SMiLerConfig, build_smiler, load_snapshot, save_smiler,
)
from repro.exec import ENGINE_ENV_VAR, ENGINE_NAMES
from repro.faults import FaultInjectingBackend, FaultProfile
from repro.index import SuffixKnnEngine, SuffixSearchConfig
from repro.index.suffix_search import search_many
from repro.index.window_index import step_many
from repro.service import PredictionService, ServiceConfig
from repro.timeseries.series import ZNormStats

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1, 3),
    predictor="ar",
)

N_SENSORS = 52
N_BACKENDS = 4
HISTORY_POINTS = 280


@pytest.fixture(autouse=True)
def _clean_global_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def make_workload(n_sensors=N_SENSORS, n_points=HISTORY_POINTS, n_future=8):
    """Seeded histories + future readings, shared across engines."""
    rng = np.random.default_rng(1234)
    histories, futures = {}, {}
    for i in range(n_sensors):
        sensor_id = f"s{i:03d}"
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(n_points + n_future)
        wave = 100.0 + 25.0 * np.sin(t / 7.0 + phase)
        wave += 0.05 * rng.normal(size=t.size)
        histories[sensor_id] = wave[:n_points]
        futures[sensor_id] = wave[n_points:]
    return histories, futures


def build_service(
    backend_name,
    engine,
    n_backends=N_BACKENDS,
    fault_profiles=None,
    breaker=None,
    **config_kwargs,
):
    backends = [
        make_backend(
            backend_name,
            fault_profile=None if fault_profiles is None else fault_profiles[i],
        )
        for i in range(n_backends)
    ]
    return PredictionService(
        CONFIG,
        backends=backends,
        min_history=100,
        breaker=breaker,
        service_config=ServiceConfig(
            engine=engine, max_workers=4, **config_kwargs
        ),
    )


def drive(service, histories, futures, rounds=2, singles=4):
    """Register the fleet, alternate batch ops, sprinkle single ops.

    Returns ``(batches, single_forecasts, placements, elapsed,
    ledgers)`` and *closes the service*, so the process engine's workers
    are flushed and state authority is back in the parent before the
    ledgers are read.
    """
    try:
        for sensor_id, history in histories.items():
            service.register(sensor_id, history)
        batches, single_forecasts = [], {}
        single_ids = sorted(histories)[:singles]
        for step in range(rounds):
            batches.append(service.forecast_all())
            for sensor_id in single_ids:  # singles ride the same engine
                try:
                    single_forecasts[(step, sensor_id)] = service.forecast(
                        sensor_id
                    )
                except Exception as error:  # parity includes failures
                    single_forecasts[(step, sensor_id)] = (
                        type(error).__name__, str(error)
                    )
            service.ingest_many(
                {sid: float(futures[sid][step]) for sid in histories}
            )
        batches.append(service.forecast_all())
        placements = {sid: service.placement_of(sid) for sid in histories}
    finally:
        service.close()
    elapsed = [backend.elapsed_s for backend in service.backends]
    ledgers = []
    for backend in service.backends:
        cost = getattr(backend, "cost", None)  # simulated only
        ledgers.append({
            "allocated_bytes": backend.allocated_bytes,
            "launches": None if cost is None else cost.launches,
            "per_kernel_s": None if cost is None else dict(cost.per_kernel_s),
        })
    return batches, single_forecasts, placements, elapsed, ledgers


def assert_batches_identical(reference, other):
    """Bit-identical forecasts and matching error side-channels."""
    assert len(reference) == len(other)
    for batch_ref, batch_other in zip(reference, other):
        # Forecast is a frozen dataclass: == compares every float exactly.
        assert dict(batch_ref) == dict(batch_other)
        assert set(batch_ref.errors) == set(batch_other.errors)
        for sensor_id, error_ref in batch_ref.errors.items():
            error_other = batch_other.errors[sensor_id]
            assert type(error_ref) is type(error_other)
            assert str(error_ref) == str(error_other)


class TestEngineResolution:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            ServiceConfig(engine="gpu-cluster")
        with pytest.raises(ValueError):
            ServiceConfig(engine_timeout_s=0.0)

    def test_explicit_engine_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "process")
        assert ServiceConfig(engine="inline").resolved_engine() == "inline"

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "process")
        assert ServiceConfig().resolved_engine() == "process"
        monkeypatch.setenv(ENGINE_ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            ServiceConfig().resolved_engine()

    def test_default_is_inline_at_any_worker_count(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert ServiceConfig().resolved_engine() == "inline"
        assert ServiceConfig(max_workers=4).resolved_engine() == "inline"
        assert ServiceConfig(max_workers=4, engine="thread") \
            .resolved_engine() == "thread"

    def test_status_reports_engine(self):
        service = build_service("native", engine="thread", n_backends=2)
        try:
            assert service.status()["engine"] == "thread"
        finally:
            service.close()

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_dropped_service_is_freed_without_the_cycle_collector(self, engine):
        """Engines hold their service weakly: a served, closed, dropped
        service (histories, indexes) dies by refcount."""
        histories, _ = make_workload(n_sensors=2)
        service = build_service("native", engine=engine, n_backends=2)
        for sensor_id, history in histories.items():
            service.register(sensor_id, history)
        service.forecast_all()
        service.close()
        gone = weakref.ref(service)
        gc.disable()
        try:
            del service
            assert gone() is None
        finally:
            gc.enable()


class TestLaneFusedLaunches:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_ingest_lane_is_four_search_ops_per_item_length(self, engine):
        """Per shard per ``ingest_many``: one stacked window step, one
        stacked shift-sum for the group bounds, one LB_Kim launch per
        item length and the search's three kernel ops for every length
        at once (the name predates the end-anchored lane pass, which
        answers all item lengths from two verification launches and one
        selection) — none grows with the lane, on every engine."""
        histories, futures = make_workload(n_sensors=12)
        service = build_service("simulated", engine, n_backends=2)
        try:
            for sensor_id, history in histories.items():
                service.register(sensor_id, history)
            service.forecast_all()
            service.status()  # sync off-process ledgers
            before = [backend.cost.launches for backend in service.backends]
            service.ingest_many(
                {sid: float(futures[sid][0]) for sid in histories}
            )
            service.status()
            spent = [
                backend.cost.launches - launches
                for backend, launches in zip(service.backends, before)
            ]
            per_shard = service.sensors_per_backend()
        finally:
            service.close()
        assert per_shard == [6, 6]
        assert spent == [2 + len(CONFIG.elv) + 3 for _ in per_shard]

    def test_seven_launches_a_round_on_a_24_sensor_shard_ragged_or_not(self):
        """56 per round before the index steps were stacked (24 window
        steps + 24 shift-sums + 4 x 2), 10 while the search ran per item
        length; now 7 (2 + 2 LB_Kim + 3), every round, and blind to the
        lane's series lengths."""
        for ragged in (0, 13):
            service = build_service("simulated", "inline", n_backends=1)
            histories, futures = make_workload(n_sensors=24, n_future=10)
            for i, (sensor_id, history) in enumerate(histories.items()):
                service.register(sensor_id, history[(i * ragged) % 97 :])
            service.forecast_all()
            cost, spent = service.backends[0].cost, []
            for step in range(10):
                before = cost.launches
                service.ingest_many(
                    {sid: float(futures[sid][step]) for sid in histories}
                )
                spent.append(cost.launches - before)
            service.close()
            assert spent == [2 + len(CONFIG.elv) + 3] * 10 == [7] * 10

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_a_stale_forecast_lane_is_one_fused_search(self, engine, tmp_path):
        """The first ``forecast_all`` after ``restore()`` finds every
        sensor stale: one shift-sum, one LB_Kim launch per item length
        and three kernel ops for the 24 of them (24 x 9 while each
        re-searched alone, 9 while the search ran per item length) — and
        nothing at all once every answer is current."""
        rng = np.random.default_rng(77)
        source = build_service("simulated", engine, n_backends=1)
        for i in range(24):
            # Rough enough that no survivor launch comes up empty.
            source.register(f"s{i:03d}", 100.0 + rng.normal(size=900).cumsum())
        source.snapshot(tmp_path)
        source.close()
        service = build_service("simulated", engine, n_backends=1)
        try:
            service.restore(tmp_path)
            spent = []
            for _ in range(2):
                service.status()  # sync off-process ledgers
                before = service.backends[0].cost.launches
                batch = service.forecast_all()
                assert not batch.errors and len(batch) == 24
                service.status()
                spent.append(service.backends[0].cost.launches - before)
        finally:
            service.close()
        assert spent == [1 + len(CONFIG.elv) + 3, 0] == [6, 0]


    def test_one_search_of_a_ragged_lane_launch_for_launch(self):
        """The whole ``(kernel, n_blocks, ops_per_thread)`` sequence of a
        cold and a warm ``search_many`` over six sensors of six series
        lengths (one with fewer than ``k_max`` candidates at d=24).  No
        launch may be added, dropped or reordered; the warm search's row
        counts (survivor blocks, ``k_select`` pool sizes, the clock) are
        those of the successor-seeded threshold, one end-anchored lane
        pass serving the three item lengths."""
        cfg = SuffixSearchConfig(
            item_lengths=(8, 16, 24), k_max=6, omega=4, rho=2, margin=2
        )
        backend = make_backend("simulated")
        rng = np.random.default_rng(2323)
        engines = [
            SuffixKnnEngine(
                np.cumsum(rng.normal(size=n)) + np.sin(np.arange(n) / 5.0),
                cfg, backend=backend,
            )
            for n in (150, 331, 29, 204, 600, 87)
        ]
        recorded, launch = [], backend.cost.launch

        def recording(name, n_blocks, ops_per_thread, threads_per_block=256):
            recorded.append((name, int(n_blocks), float(ops_per_thread)))
            return launch(name, n_blocks, ops_per_thread, threads_per_block)

        backend.cost.launch = recording
        search_many(engines)
        # Every length's seeds in one launch, priced at the band through
        # the longest (d = 24, rho = 2: 24 x 5 - 2 x 3 = 114 cells); 64
        # seeds per row cover every survivor: no (D) launch.  The
        # selection is priced on pools of the reads within the gate
        # (1.828125 and 4.265625 while the pools held every finite read).
        cold = [
            ("group_index_sum", 24, 21.0),
            ("dtw_verify", 2, 912.0),
            ("search_lb_kim", 9, 12.0),
            ("search_lb_kim", 9, 12.0),
            ("search_lb_kim", 9, 12.0),
            ("k_select", 18, 0.09375),
        ]
        assert recorded == cold
        step_many(
            [engine.window_index for engine in engines],
            rng.normal(size=len(engines)),
        )
        del recorded[:]
        search_many(engines)
        assert recorded == [
            ("group_index_sum", 24, 21.0),
            ("dtw_verify", 1, 912.0),
            ("search_lb_kim", 9, 12.0),
            ("search_lb_kim", 9, 12.0),
            ("search_lb_kim", 9, 12.0),
            ("dtw_verify", 2, 912.0),
            ("k_select", 18, 0.96875),
        ]
        assert backend.cost.elapsed_s.hex() == "0x1.c72bc22775a36p-14"


class _StandaloneSensor:
    """One sensor outside any service: a ``SMiLer`` of its own on a
    backend of its own, fed what the service feeds its copy."""

    def __init__(self, sensor_id, history, backend_name):
        self.backend_name = backend_name
        self.stats = ZNormStats.of(history)
        self.smiler = SMiLer(
            self.stats.apply(history), CONFIG,
            backend=make_backend(backend_name), sensor_id=sensor_id,
        )

    def forecast(self):
        horizon = min(CONFIG.horizons)
        output = self.smiler.predict(horizon=horizon)[horizon]
        mean = float(self.stats.invert(np.array([output.mean]))[0])
        variance = float(
            self.stats.invert_variance(np.array([output.variance]))[0]
        )
        return mean, float(np.sqrt(max(variance, 0.0)))

    def ingest(self, value):
        self.smiler.observe(self.stats.apply(np.array([value]))[0])

    def through_a_snapshot(self, directory):
        path = directory / f"twin-{self.smiler.sensor_id}.npz"
        save_smiler(self.smiler, path)
        self.smiler = build_smiler(
            load_snapshot(path), backend=make_backend(self.backend_name)
        )


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
class TestLaneLifecycle:
    """Sensors join and leave a lane between ticks — deregistered,
    evacuated onto another shard's lane, restored into new ones — with
    series lengths that differ from their neighbours'.  Whatever stack a
    sensor's index shares, its forecasts and kNN answers are the ones a
    standalone ``SMiLer`` fed the same readings gives."""

    def test_register_ingest_deregister_evacuate_restore(
        self, engine, backend_name, tmp_path
    ):
        histories, futures = make_workload(n_sensors=8, n_future=10)
        histories = {
            sid: history[11 * i :] for i, (sid, history) in
            enumerate(histories.items())
        }
        twins = {
            sid: _StandaloneSensor(sid, history, backend_name)
            for sid, history in histories.items()
        }
        step = 0

        def serve_rounds(service, n):
            nonlocal step
            for _ in range(n):
                batch = service.forecast_all()
                assert not batch.errors and sorted(batch) == sorted(twins)
                for sid, twin in twins.items():
                    assert (batch[sid].mean, batch[sid].std) == twin.forecast()
                    assert batch[sid].source == "ensemble"
                readings = {sid: float(futures[sid][step]) for sid in twins}
                service.ingest_many(readings)
                for sid, twin in twins.items():
                    twin.ingest(readings[sid])
                    ours, theirs = service.sensor(sid), twin.smiler
                    np.testing.assert_array_equal(ours.series, theirs.series)
                    assert ours.now == theirs.now
                    assert list(ours._answers) == list(theirs._answers)
                    for d, answer in theirs._answers.items():
                        np.testing.assert_array_equal(
                            ours._answers[d].starts, answer.starts
                        )
                        np.testing.assert_array_equal(
                            ours._answers[d].distances, answer.distances
                        )
                step += 1

        service = build_service(backend_name, engine, n_backends=2)
        try:
            for sensor_id, history in histories.items():
                service.register(sensor_id, history)
            serve_rounds(service, 2)
            service.deregister("s003")
            del twins["s003"]
            serve_rounds(service, 2)
            moved = service.evacuate(0)
            assert moved and set(service.sensors_per_backend()) == {0, 7}
            serve_rounds(service, 2)
            service.snapshot(tmp_path / "service")
        finally:
            service.close()
        (tmp_path / "twins").mkdir()
        for twin in twins.values():
            twin.through_a_snapshot(tmp_path / "twins")
        restored = build_service(backend_name, engine, n_backends=2)
        try:
            restored.restore(tmp_path / "service")
            serve_rounds(restored, 2)
        finally:
            restored.close()


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
class TestEngineParity:
    """All three engines, both backends: indistinguishable bits."""

    def test_fault_free_bit_identical(self, backend_name):
        histories, futures = make_workload()
        results = {}
        for engine in ENGINE_NAMES:
            results[engine] = drive(
                build_service(backend_name, engine), histories, futures
            )
        ref_batches, ref_singles, ref_placements, ref_elapsed, ref_ledgers = (
            results["inline"]
        )
        assert all(len(batch) == N_SENSORS for batch in ref_batches)
        assert all(not batch.errors for batch in ref_batches)
        for engine in ("thread", "process"):
            batches, singles, placements, elapsed, ledgers = results[engine]
            assert_batches_identical(ref_batches, batches)
            assert singles == ref_singles  # frozen dataclass, exact floats
            assert placements == ref_placements
            assert elapsed == ref_elapsed  # exact float equality
            # The memory ledger and the cost model cross the pipe as part
            # of the backend: exact ints, exact per-kernel floats.
            assert ledgers == ref_ledgers
        assert all(ledger["allocated_bytes"] > 0 for ledger in ref_ledgers)
        if backend_name == "simulated":
            assert all(s > 0.0 for s in ref_elapsed)
            assert all(ledger["launches"] > 0 for ledger in ref_ledgers)

    def test_error_side_channel_identical(self, backend_name, monkeypatch):
        """Deterministic injected faults cross the process boundary with
        their type and message intact, and land on the same sensors.
        The ladder raises below the ensemble rung — patched before the
        first batch, so forked shard workers inherit it — and breakers
        never trip, so no engine fails over."""
        histories, futures = make_workload(n_sensors=24)
        # A search is three faultable ops: at 0.19 an attempt fails with
        # p ~ 0.47, so both SEARCH_ATTEMPTS fail with p ~ 0.22 — what one
        # attempt did at 0.08.
        profiles = [
            FaultProfile(seed=100 + i, kernel_error_rate=0.19,
                         kernel_nan_rate=0.05)
            for i in range(N_BACKENDS)
        ]

        def no_lower_rung(service, sensor_id, horizon):
            raise RuntimeError(f"{sensor_id}: no rung below the ensemble")

        monkeypatch.setattr(
            PredictionService, "_predict_resilient", no_lower_rung
        )
        results = {}
        for engine in ENGINE_NAMES:
            service = build_service(
                backend_name, engine, fault_profiles=profiles,
                breaker=BreakerConfig(failure_threshold=10**9),
            )
            results[engine] = drive(service, histories, futures, rounds=3)
        ref_batches = results["inline"][0]
        # The profile rates make silence astronomically unlikely: the
        # test must actually exercise the error side-channel.
        assert any(batch.errors for batch in ref_batches)
        assert any(len(batch) > 0 for batch in ref_batches)
        for engine in ("thread", "process"):
            assert_batches_identical(ref_batches, results[engine][0])

    def test_request_telemetry_identical(self, backend_name, tmp_path):
        """Every entry point runs inside the same request envelope and
        the same lane runner on every engine: the request events and the
        metric deltas of a session touching all five entry points (the
        singles both before and after a worker generation is live)
        equal the inline engine's."""
        histories, futures = make_workload(n_sensors=8)
        first = sorted(histories)[0]

        def session(engine):
            obs.reset()
            obs.enable()
            service = build_service(backend_name, engine, n_backends=2)
            restored = build_service(backend_name, engine, n_backends=2)
            try:
                for sensor_id, history in histories.items():
                    service.register(sensor_id, history)
                for step in (0, 2):  # step 2: process singles cross the wire
                    service.forecast(first)
                    service.ingest(first, float(futures[first][step]))
                    service.forecast_all()
                    service.ingest_many({
                        sid: float(futures[sid][step + 1])
                        for sid in histories
                    })
                with pytest.raises(ValueError):
                    service.ingest(first, float("nan"))
                service.snapshot(tmp_path / engine)
                restored.restore(tmp_path / engine)
            finally:
                service.close()
                restored.close()
            obs.disable()
            events = [
                (e["kind"], e["entry_point"], e["n_items"],
                 e.get("ok"), e.get("n_errors"))
                for e in obs.get_event_log().tail(10_000)
                if e["kind"] in ("request_start", "request_end")
            ]
            metrics = {}
            for name, record in obs.to_json(obs.get_registry()).items():
                if record["kind"] == "gauge":
                    continue  # SLO ratios depend on wall-clock latency
                for series in record["series"]:
                    key = (name, tuple(sorted(series["labels"].items())))
                    # Histogram sums are wall-clock; sample counts are not.
                    metrics[key] = series.get("value", series.get("count"))
            return events, metrics

        ref_events, ref_metrics = session("inline")
        assert [e[1] for e in ref_events if e[0] == "request_end"] == [
            "forecast", "ingest", "forecast_all", "ingest_many",
            "forecast", "ingest", "forecast_all", "ingest_many",
            "ingest", "restore",
        ]
        assert ref_events[-3] == ("request_end", "ingest", 1, False, 0)
        lane_key = (
            "smiler_lane_sensors_total", (("backend", "0"), ("lane", "0"))
        )
        assert ref_metrics[lane_key] == 4 * 4  # sensors x batches; no singles
        for engine in ("thread", "process"):
            events, metrics = session(engine)
            assert events == ref_events
            assert metrics == ref_metrics


    def test_a_non_default_level_is_applied_in_the_parent(self, backend_name):
        """``level`` never enters a lane: on one live worker generation,
        every ``forecast_all`` at levels 0.8 and 0.99 on both horizons,
        and a single ``forecast`` at 0.5, equal the inline engine's
        ``Forecast`` float for float."""
        histories, _ = make_workload(n_sensors=12)
        first = sorted(histories)[0]
        served, generations = {}, []
        for engine in ("inline", "process"):
            service = build_service(backend_name, engine, n_backends=2)
            try:
                for sensor_id, history in histories.items():
                    service.register(sensor_id, history)
                forecasts = []
                for level in (0.8, 0.99):
                    for horizon in CONFIG.horizons:
                        batch = service.forecast_all(horizon=horizon, level=level)
                        assert not batch.errors
                        assert len(batch) == len(histories)
                        forecasts.extend(batch.values())
                        if engine == "process":
                            generations.append(service.engine.worker_pids())
                forecasts.append(service.forecast(first, level=0.5))
                if engine == "process":
                    generations.append(service.engine.worker_pids())
            finally:
                service.close()
            served[engine] = [
                (f.sensor_id, f.horizon, f.level, f.source, f.mean.hex(),
                 f.std.hex(), f.interval_low.hex(), f.interval_high.hex())
                for f in forecasts
            ]
        assert len(generations[0]) == 2
        assert all(pids == generations[0] for pids in generations)
        assert served["process"] == served["inline"]
        assert served["inline"][-1][2] == 0.5
        assert {row[2] for row in served["inline"][:-1]} == {0.8, 0.99}


class TestCountedOnce:
    """What a shard worker counts crosses to the parent once: breaker
    transitions in its drained telemetry delta, clocks in the flush."""

    def serve(self, engine, backends, rounds, kill_first=False):
        """Register eight sensors on ``backends``, serve ``rounds`` of
        ``forecast_all`` -> ``ingest_many``, close; returns the service."""
        histories, futures = make_workload(n_sensors=8)
        service = PredictionService(
            CONFIG, backends=backends, min_history=100,
            service_config=ServiceConfig(engine=engine),
        )
        for sensor_id, history in histories.items():
            service.register(sensor_id, history)
        if kill_first:  # dies now: the first batch trips its breaker
            backends[0].profile = FaultProfile(dies_at_tick=backends[0].tick)
        try:
            for step in range(rounds):
                assert not service.forecast_all().errors
                service.ingest_many(
                    {sid: float(futures[sid][step]) for sid in histories}
                )
        finally:
            service.close()
        return service

    def test_a_worker_trip_is_one_transition(self):
        """A breaker a shard worker trips is counted, logged and gauged
        once — by the worker, in its drained delta — exactly as inline;
        adopting the worker's record emits nothing."""
        served = {}
        for engine in ("inline", "process"):
            obs.reset()
            obs.enable()
            backends = [
                FaultInjectingBackend(SimulatedGpuBackend(), FaultProfile()),
                SimulatedGpuBackend(),
            ]
            service = self.serve(engine, backends, 2, kill_first=True)
            registry = obs.get_registry()
            transitions = registry.get("smiler_breaker_transitions_total")
            served[engine] = (
                {key: transitions.value(**transitions.labels_of(key))
                 for key in transitions.series_keys()},
                [(e["backend_id"], e["from_state"], e["to_state"])
                 for e in obs.get_event_log().tail(10_000)
                 if e["kind"] == "breaker_transition"],
                registry.get("smiler_backend_state").value(backend=0),
            )
            # Read last: status() may half-open the breaker on its own
            # pool clock.
            status = service.status()
            served[engine] += (
                [backend["health"]["trips"] for backend in status["backends"]],
                status["slo"]["served_degraded"],
            )
        assert served["inline"][:4] == (
            {("0", "closed", "open"): 1.0}, [(0, "closed", "open")], 2.0, [1, 0],
        )
        assert served["inline"][4]  # the batch that tripped it degraded
        assert served["process"] == served["inline"]

    def test_the_flush_carries_every_clock(self):
        """No batch reply carries a clock: the injected-latency ledger
        and the inner cost model reach the parent in the flush pickle,
        equal to the inline engine's to the bit."""
        clocks = {}
        for engine in ("inline", "process"):
            backends = [
                FaultInjectingBackend(
                    SimulatedGpuBackend(), FaultProfile(added_latency_s=1e-4)
                )
                for _ in range(2)
            ]
            service = self.serve(engine, backends, 3)
            status = service.status()
            clocks[engine] = (
                status["device_sim_seconds"].hex(),
                [backend["sim_seconds"].hex() for backend in status["backends"]],
                [(backend.inner.cost.launches, backend.injected["latency"])
                 for backend in service.backends],
            )
        assert all(latency > 0 for _, latency in clocks["inline"][2])
        assert clocks["process"] == clocks["inline"]


class TestWorkerCrash:
    """SIGKILL a shard worker: the batch completes (no hang), the dead
    shard's sensors are rebuilt from the parent's record onto survivors,
    and serving continues."""

    N_CRASH_BACKENDS = 3
    N_CRASH_SENSORS = 9

    def _build(self):
        return build_service(
            "simulated", "process",
            n_backends=self.N_CRASH_BACKENDS,
            engine_timeout_s=20.0,
        )

    @staticmethod
    def shm_blocks():
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
    )
    def test_a_failed_start_leaks_no_block_and_no_worker(self, monkeypatch):
        """A shard worker that exits before it reports ready fails the
        start loudly, and the attempt leaves nothing behind: every
        process it forked is reaped, no shared-memory block appears, and
        the next batch forks a working generation."""
        import multiprocessing

        from repro.exec import process as process_engine

        real_main = process_engine._worker_main

        def exits_on_backend_1(conn, backend_index, sensor_ids, service):
            if backend_index == 1:
                os._exit(1)
            real_main(conn, backend_index, sensor_ids, service)

        histories, _ = make_workload(n_sensors=4)
        service = build_service(
            "native", "process", n_backends=2, engine_timeout_s=20.0
        )
        try:
            for sensor_id, history in histories.items():
                service.register(sensor_id, history)
            before = self.shm_blocks()
            monkeypatch.setattr(
                process_engine, "_worker_main", exits_on_backend_1
            )
            with pytest.raises(RuntimeError, match="failed to start"):
                service.forecast_all()
            assert self.shm_blocks() <= before
            assert not [
                child for child in multiprocessing.active_children()
                if child.name.startswith("smiler-shard-")
            ]
            monkeypatch.setattr(process_engine, "_worker_main", real_main)
            batch = service.forecast_all()
            assert not batch.errors and set(batch) == set(histories)
            assert len(service.engine.worker_pids()) == 2
        finally:
            service.close()

    def test_killed_worker_evacuates_without_hanging(self):
        histories, futures = make_workload(n_sensors=self.N_CRASH_SENSORS)
        service = self._build()
        try:
            for sensor_id, history in histories.items():
                service.register(sensor_id, history)
            # Snapshot placements first: placement_of() refreshes the
            # engine, and refreshing a process engine flushes (retires)
            # the live worker generation.
            placements = {
                sid: service.placement_of(sid) for sid in histories
            }
            first = service.forecast_all()  # forks the workers
            assert not first.errors and len(first) == self.N_CRASH_SENSORS
            pids = service.engine.worker_pids()
            assert len(pids) == self.N_CRASH_BACKENDS
            victim_index = sorted(pids)[0]
            evacuees = {
                sid for sid in histories if placements[sid] == victim_index
            }
            assert evacuees  # greedy balancing hosts >= 1 per backend
            obs.enable()
            os.kill(pids[victim_index], signal.SIGKILL)

            started = time.monotonic()
            batch = service.forecast_all()
            # Liveness: crash detection polls the process, it never sits
            # out the full timeout, let alone hangs.
            assert time.monotonic() - started < 15.0
            # The replayed lane is stamped by the same lane runner as the
            # healthy ones: real backend ids, so it lands on its shard's
            # Chrome-trace track.
            lanes = service.trace_last_request().find_all("lane")
            assert [lane.attrs["backend_id"] for lane in lanes] == [
                service.backends[lane.attrs["backend"]].backend_id
                for lane in lanes
            ]
            assert [
                lane.attrs["backend"] for lane in lanes
                if lane.attrs.get("replayed_after_crash")
            ] == [victim_index]
            # Completeness: every sensor is accounted for exactly once.
            assert set(batch) | set(batch.errors) == set(histories)
            assert not set(batch) & set(batch.errors)

            # Evacuation: the dead shard's sensors moved to survivors
            # and the backend is out of the admission rotation.
            for sensor_id in evacuees:
                assert service.placement_of(sensor_id) != victim_index
            assert service._pool.state(victim_index) == "open"
            assert service.sensors_per_backend()[victim_index] == 0

            # The service stays serviceable on the survivor generation.
            service.ingest_many(
                {sid: float(futures[sid][0]) for sid in histories}
            )
            again = service.forecast_all()
            assert set(again) | set(again.errors) == set(histories)
            live = service.engine.worker_pids()
            assert pids[victim_index] not in live.values()
        finally:
            service.close()

    def test_single_ops_survive_a_killed_worker(self):
        """A single forecast() / ingest() sent to a SIGKILLed shard
        worker takes the batch loss path: the shard is recovered, the op
        replays in the parent and is served, never hangs."""
        histories, futures = make_workload(n_sensors=self.N_CRASH_SENSORS)
        service = self._build()
        try:
            for sensor_id, history in histories.items():
                service.register(sensor_id, history)
            placements = {  # before forking; see the liveness test
                sid: service.placement_of(sid) for sid in histories
            }
            for op in ("forecast", "ingest"):
                assert not service.forecast_all().errors  # (re)forks the workers
                pids = service.engine.worker_pids()
                victim_index = sorted(pids)[0]
                sensor_id = sorted(
                    sid for sid in histories
                    if placements[sid] == victim_index
                )[0]
                os.kill(pids[victim_index], signal.SIGKILL)
                time.sleep(0.2)  # let it land: the send hits a closed pipe
                started = time.monotonic()
                if op == "forecast":
                    forecast = service.forecast(sensor_id)
                    assert forecast.sensor_id == sensor_id
                    assert np.isfinite(forecast.mean) and forecast.std > 0.0
                else:
                    service.ingest(sensor_id, float(futures[sensor_id][0]))
                    assert service.sensor(sensor_id).series.size \
                        == HISTORY_POINTS + 1
                assert time.monotonic() - started < 15.0
                assert service._pool.state(victim_index) == "open"
                assert service.sensors_per_backend()[victim_index] == 0
                assert len(service.sensor_ids) == self.N_CRASH_SENSORS
                placements = {
                    sid: service.placement_of(sid) for sid in histories
                }
                assert victim_index not in placements.values()
        finally:
            service.close()

    def test_crash_recovery_preserves_committed_history(self):
        """Recovered sensors are rebuilt from the parent's record: ingests
        acknowledged before the crash survive into the rebuild."""
        histories, futures = make_workload(n_sensors=6)
        service = self._build()
        try:
            for sensor_id, history in histories.items():
                service.register(sensor_id, history)
            placements = {  # before forking; see the liveness test
                sid: service.placement_of(sid) for sid in histories
            }
            service.forecast_all()
            service.ingest_many(  # acknowledged by the lane replies
                {sid: float(futures[sid][0]) for sid in histories}
            )
            pids = service.engine.worker_pids()
            victim_index = sorted(pids)[0]
            evacuees = [
                sid for sid in histories if placements[sid] == victim_index
            ]
            os.kill(pids[victim_index], signal.SIGKILL)
            service.forecast_all()
            for sensor_id in evacuees:
                series = service.sensor(sensor_id).series
                assert series.size == HISTORY_POINTS + 1
        finally:
            service.close()


    def test_a_crash_after_forecast_only_batches_keeps_every_point(self):
        """After ``ingest → forecast-only batches`` a worker killed then
        is rebuilt from the parent's record with every acknowledged
        point: the series an inline twin holds, to the bit."""
        histories, futures = make_workload(n_sensors=6)
        twin = build_service("simulated", "inline",
                             n_backends=self.N_CRASH_BACKENDS)
        service = self._build()
        try:
            for svc in (twin, service):
                for sensor_id, history in histories.items():
                    svc.register(sensor_id, history)
            placements = {  # before forking; see the liveness test
                sid: service.placement_of(sid) for sid in histories
            }
            for svc in (twin, service):
                svc.forecast_all()
                svc.ingest_many(
                    {sid: float(futures[sid][0]) for sid in histories}
                )
            for _ in range(2):
                for svc in (twin, service):
                    assert not svc.forecast_all().errors

            pids = service.engine.worker_pids()
            victim_index = sorted(pids)[0]
            evacuees = sorted(
                sid for sid in histories if placements[sid] == victim_index
            )
            os.kill(pids[victim_index], signal.SIGKILL)
            service.forecast_all()
            assert service._pool.state(victim_index) == "open"
            for sensor_id in evacuees:
                expected = twin.sensor(sensor_id).series
                assert expected.size == HISTORY_POINTS + 1
                assert (service.sensor(sensor_id).series.tobytes()
                        == expected.tobytes())
        finally:
            service.close()
            twin.close()

    def test_a_batch_applied_before_a_crash_is_replayed_once(self, monkeypatch):
        """A worker that applies an ``ingest_many`` lane and dies before
        it replies never acknowledged the batch: its shard is rebuilt as
        of its last reply and the replay applies the batch once, so every
        sensor holds the inline twin's series, to the bit."""
        from repro.exec import process as process_engine

        class Mute:  # takes the reply the dying worker never sends
            def send_bytes(self, data):
                pass

        real_batch = process_engine._worker_batch

        def dies_after_applying(conn, *args):
            # args end with (backend_index, msg)
            if args[-1]["entry_point"] == "ingest_many" \
                    and args[-2] == victim_index:
                real_batch(Mute(), *args)
                os._exit(0)
            real_batch(conn, *args)

        histories, futures = make_workload(n_sensors=6)
        twin = build_service("simulated", "inline",
                             n_backends=self.N_CRASH_BACKENDS)
        service = self._build()
        try:
            for svc in (twin, service):
                for sensor_id, history in histories.items():
                    svc.register(sensor_id, history)
            placements = {  # before forking; see the liveness test
                sid: service.placement_of(sid) for sid in histories
            }
            victim_index = min(placements.values())
            monkeypatch.setattr(
                process_engine, "_worker_batch", dies_after_applying
            )
            for svc in (twin, service):
                assert not svc.forecast_all().errors  # forks the workers
                svc.ingest_many(
                    {sid: float(futures[sid][0]) for sid in histories}
                )
            assert service._pool.state(victim_index) == "open"
            for sensor_id in histories:
                expected = twin.sensor(sensor_id).series
                assert expected.size == HISTORY_POINTS + 1
                assert (service.sensor(sensor_id).series.tobytes()
                        == expected.tobytes())
        finally:
            service.close()
            twin.close()

    def test_a_failed_lane_commits_only_what_it_applied(self, monkeypatch):
        """A lane that raises before it absorbs its readings replies with
        the lengths it has, so the readings it never applied leave the
        record: a crash after the next batch rebuilds the shard with the
        readings the worker did apply — the inline twin's series."""
        import repro.service as service_module

        real_absorb = service_module.absorb_many
        failed = []  # per process: a worker forks with it still empty

        def fails_once(smilers, values):
            if not failed and any(
                smiler.sensor_id in victims for smiler in smilers
            ):
                failed.append(True)
                raise RuntimeError("absorb failed")
            real_absorb(smilers, values)

        histories, futures = make_workload(n_sensors=6)
        twin = build_service("simulated", "inline",
                             n_backends=self.N_CRASH_BACKENDS)
        service = self._build()
        try:
            for svc in (twin, service):
                for sensor_id, history in histories.items():
                    svc.register(sensor_id, history)
            placements = {  # before forking; see the liveness test
                sid: service.placement_of(sid) for sid in histories
            }
            # The last lane, so that inline every other lane has run when
            # it raises, as every other worker's lane has.
            victim_index = max(placements.values())
            victims = {
                sid for sid in histories if placements[sid] == victim_index
            }
            monkeypatch.setattr(service_module, "absorb_many", fails_once)
            for svc in (twin, service):
                assert not svc.forecast_all().errors  # forks the workers
            for svc in (twin, service):
                with pytest.raises(RuntimeError, match="absorb failed"):
                    svc.ingest_many(
                        {sid: float(futures[sid][0]) for sid in histories}
                    )
                svc.ingest_many(
                    {sid: float(futures[sid][1]) for sid in histories}
                )
            pids = service.engine.worker_pids()
            os.kill(pids[victim_index], signal.SIGKILL)
            service.forecast_all()
            assert service._pool.state(victim_index) == "open"
            for sensor_id in histories:
                expected = twin.sensor(sensor_id).series
                assert expected.size == HISTORY_POINTS + (
                    1 if sensor_id in victims else 2
                )
                assert (service.sensor(sensor_id).series.tobytes()
                        == expected.tobytes())
        finally:
            service.close()
            twin.close()

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
    )
    def test_a_started_generation_creates_no_shared_memory_block(self):
        """Workers that forked and served a batch of each kind leave
        ``/dev/shm`` as they found it: recovery needs no block."""
        histories, futures = make_workload(n_sensors=6)
        service = self._build()
        try:
            for sensor_id, history in histories.items():
                service.register(sensor_id, history)
            before = self.shm_blocks()
            service.forecast_all()
            service.ingest_many(
                {sid: float(futures[sid][0]) for sid in histories}
            )
            assert len(service.engine.worker_pids()) == self.N_CRASH_BACKENDS
            assert self.shm_blocks() <= before
        finally:
            service.close()


class TestRowFrame:
    """A lane's forecast rows cross the process boundary as one float64
    frame beside the JSON envelope: every bit survives, and a frame that
    does not match its sources is a lost worker."""

    EXTREMES = (0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                1e308, -1e308, 1.7976931348623157e308, np.nextafter(1.0, 2.0))

    @staticmethod
    def lanes():
        from repro.service import SnapshotCorruptionError

        rows = [(m, v, source) for m, v, source in zip(
            TestRowFrame.EXTREMES, TestRowFrame.EXTREMES[::-1],
            ("ensemble", "reduced", "ar", "naive") * 3,
        )]
        return [
            [],
            [None, None],
            rows,
            [None, rows[0], RuntimeError("s001: no rung served"), rows[1],
             None, KeyError("s404"), rows[2], ValueError("nan row")],
            [SnapshotCorruptionError("archive 's404.npz' is hand-edited")],
        ]

    @staticmethod
    def cross(outcomes, flip=None):
        from repro.exec.process import _decode_outcomes, _wire_outcomes

        wire, frame = _wire_outcomes(outcomes)
        if flip is not None:
            frame = bytearray(frame)
            frame[flip] ^= 0x01
        envelope = json.dumps({"outcomes": wire}, separators=(",", ":"))
        return _decode_outcomes(json.loads(envelope)["outcomes"], bytes(frame))

    @staticmethod
    def same(a, b):
        """Byte-for-byte: row floats by their IEEE bytes, errors by type
        and args."""
        import struct

        assert len(a) == len(b)
        for x, y in zip(a, b):
            if x is None or y is None:
                assert x is None and y is None
            elif isinstance(x, tuple):
                assert isinstance(y, tuple) and len(y) == 3
                assert struct.pack("<2d", *x[:2]) == struct.pack("<2d", *y[:2])
                assert x[2] == y[2]
            else:
                assert type(x) is type(y) and x.args == y.args

    def test_every_bit_crosses(self):
        for outcomes in self.lanes():
            self.same(outcomes, self.cross(outcomes))

    def test_a_flipped_byte_is_caught(self):
        """The negative control: the comparison sees one flipped bit."""
        rows = self.lanes()[2]
        for at in (0, 8, 8 * (2 * len(rows) - 1) + 7):
            with pytest.raises(AssertionError):
                self.same(rows, self.cross(rows, flip=at))

    def test_a_mismatched_frame_is_the_malformed_reply_loss(self):
        import multiprocessing

        from repro.exec.process import _Worker, _WorkerLost
        from repro.exec.wire import error_to_wire

        class Alive:
            def is_alive(self):
                return True

        service = build_service("native", "process", n_backends=1)
        parent, child = multiprocessing.Pipe()
        worker = _Worker(process=Alive(), conn=parent, backend_index=0,
                         sensor_ids=(), pid=0)
        envelope = json.dumps({"outcomes": [
            None, "ensemble", error_to_wire(KeyError("s1")),
        ]}).encode()
        try:
            losses = []
            child.send_bytes(b'{"outcomes": [nul')  # malformed envelope
            for frame in (b"", bytes(8), bytes(24), bytes(12)):
                child.send_bytes(envelope)
                child.send_bytes(frame)
            for _ in range(5):
                with pytest.raises(_WorkerLost) as lost:
                    service.engine._await_reply(worker, rows=True)
                losses.append(str(lost.value))
            assert losses == [
                "shard worker for backend 0 sent a malformed frame"
            ] * 5
            child.send_bytes(envelope)  # the one frame that matches
            child.send_bytes(np.array([1.5, 0.25]).tobytes())
            reply = service.engine._await_reply(worker, rows=True)
            self.same(reply["outcomes"], [None, (1.5, 0.25, "ensemble"),
                                          KeyError("s1")])
        finally:
            parent.close()
            child.close()
            service.close()


class TestFlushTelemetry:
    """Worker-side observability drains back to the parent — both per
    batch and on graceful teardown — with request accounting intact."""

    def test_no_request_events_lost_on_teardown(self):
        obs.enable()
        histories, futures = make_workload(n_sensors=6)
        service = build_service(
            "simulated", "process", n_backends=2
        )
        requests = 0
        try:
            for sensor_id, history in histories.items():
                service.register(sensor_id, history)
            for step in range(2):
                service.forecast_all()
                requests += 1
                for sensor_id in sorted(histories)[:3]:
                    service.forecast(sensor_id)
                    requests += 1
                service.ingest_many(
                    {sid: float(futures[sid][step]) for sid in histories}
                )
                requests += 1
        finally:
            # Teardown right after a batch: the workers still hold their
            # undrained telemetry tails until the FLUSH on close().
            service.close()
        events = obs.get_event_log().tail(10_000)
        kinds = [event["kind"] for event in events]
        assert kinds.count("request_start") == requests
        assert kinds.count("request_end") == requests
        assert obs.get_event_log().dropped_total == 0

    def test_worker_metrics_merge_into_parent_registry(self):
        obs.enable()
        histories, _ = make_workload(n_sensors=4)
        service = build_service("simulated", "process", n_backends=2)
        try:
            for sensor_id, history in histories.items():
                service.register(sensor_id, history)
            batch = service.forecast_all()
            assert not batch.errors
        finally:
            service.close()
        metrics = obs.to_json(obs.get_registry())
        forecasts = metrics["smiler_forecasts_total"]
        total = sum(entry["value"] for entry in forecasts["series"])
        assert total >= len(histories)
