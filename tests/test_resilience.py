"""Tests for the health-aware pool, failover and graceful degradation."""

import gc
import math
import weakref

import numpy as np
import pytest

import repro.obs as obs
from repro.backend import (
    BackendPool,
    BreakerConfig,
    NativeBackend,
    SimulatedGpuBackend,
)
from repro.core import SMiLerConfig
from repro.core.smiler import SMiLer, predict_lane
from repro.faults import FaultInjectingBackend, FaultProfile
from repro.service import SEARCH_ATTEMPTS, PredictionService
from repro.timeseries.series import ZNormStats
from repro.tolerances import NAIVE_VARIANCE

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1, 3),
    predictor="ar",
)


def raw_history(n=600, seed=0, scale=50.0, offset=200.0):
    rng = np.random.default_rng(seed)
    return offset + scale * (
        np.sin(np.arange(n) / 9.0) + 0.05 * rng.normal(size=n)
    )


def make_service(**kwargs):
    return PredictionService(CONFIG, min_history=100, **kwargs)


def fail(*args, **kwargs):
    raise RuntimeError("rung down")


def break_rungs_above_naive(monkeypatch):
    """Every rung above ``naive`` raises, so the ladder ends there."""
    monkeypatch.setattr("repro.service.predict_lane", fail)
    monkeypatch.setattr(SMiLer, "predict_reduced", fail)
    monkeypatch.setattr(PredictionService, "_ar_fallback", fail)


class ExplodingMalloc(NativeBackend):
    """Malloc fails with a non-capacity error (counts against health)."""

    def malloc(self, nbytes, label="buffer"):
        raise RuntimeError("hardware says no")


class TestCircuitBreaker:
    def make_pool(self, n=2, threshold=2, cooldown=3):
        return BackendPool(
            [NativeBackend() for _ in range(n)],
            breaker=BreakerConfig(
                failure_threshold=threshold, cooldown_ops=cooldown
            ),
        )

    def test_config_validated(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_ops=0)

    def test_trips_at_threshold(self):
        pool = self.make_pool()
        pool.record_failure(0)
        assert pool.state(0) == "closed"
        pool.record_failure(0)
        assert pool.state(0) == "open"
        assert not pool.admits(0)
        assert [i for i in range(len(pool)) if pool.admits(i)] == [1]
        assert pool.health(0).trips == 1

    def test_success_resets_the_streak(self):
        pool = self.make_pool()
        pool.record_failure(0)
        pool.record_success(0)
        pool.record_failure(0)
        assert pool.state(0) == "closed"

    def test_cooldown_then_half_open_probe(self):
        pool = self.make_pool()
        pool.record_failure(0)
        pool.record_failure(0)
        assert pool.state(0) == "open"
        for _ in range(3):  # cooldown_ops pool operations elsewhere
            pool.record_success(1)
        assert pool.state(0) == "half_open"
        assert pool.admits(0)
        pool.record_success(0)  # probe passes
        assert pool.state(0) == "closed"

    def test_half_open_probe_failure_retrips(self):
        pool = self.make_pool()
        pool.record_failure(0)
        pool.record_failure(0)
        for _ in range(3):
            pool.record_success(1)
        assert pool.state(0) == "half_open"
        pool.record_failure(0)  # probe fails: straight back to open
        assert pool.state(0) == "open"
        assert pool.health(0).trips == 2

    def test_mark_unhealthy_forces_open(self):
        pool = self.make_pool()
        pool.mark_unhealthy(0)
        assert pool.state(0) == "open"

    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    def test_counted_success_is_that_many_successes(self, count):
        """A lane's sensors recorded in one call: the op clock — so the
        tick an open breaker's cool-down ends on — and every counter
        read what ``count`` single calls leave behind."""
        counted, single = self.make_pool(), self.make_pool()
        for pool in (counted, single):
            pool.record_failure(1)
            pool.record_failure(0)
            pool.record_failure(0)  # 0 opens; cool-down is 3 ops
        counted.record_success(1, count)
        for _ in range(count):
            single.record_success(1)
        assert counted._op == single._op
        for index in (0, 1):
            assert counted.health_dict(index) == single.health_dict(index)
            assert (
                counted.health(index).opened_at_op
                == single.health(index).opened_at_op
            )
        assert counted.state(0) == ("half_open" if count >= 3 else "open")
        before = (counted._op, counted.health_dict(1))
        counted.record_success(1, 0)  # nobody served: nothing recorded
        assert (counted._op, counted.health_dict(1)) == before

    def test_allocate_skips_open_circuits(self):
        pool = self.make_pool()
        pool.mark_unhealthy(0)
        placement = pool.allocate(64, "sensor")
        assert placement.backend_index == 1

    def test_allocate_fails_open_when_every_breaker_is_open(self):
        pool = self.make_pool(n=1)
        pool.mark_unhealthy(0)
        placement = pool.allocate(64, "sensor")  # still served
        assert placement.backend_index == 0

    def test_capacity_refusal_is_not_a_health_failure(self):
        pool = BackendPool(
            [NativeBackend(capacity_bytes=100), NativeBackend()],
            breaker=BreakerConfig(failure_threshold=1),
        )
        placement = pool.allocate(1000, "big")
        assert placement.backend_index == 1
        assert pool.state(0) == "closed"
        assert pool.health(0).failures_total == 0

    def test_malloc_exception_counts_against_health(self):
        pool = BackendPool(
            [ExplodingMalloc(), NativeBackend(capacity_bytes=10**6)],
            breaker=BreakerConfig(failure_threshold=1),
        )
        # ExplodingMalloc has the most free bytes, so it is tried first.
        placement = pool.allocate(64, "sensor")
        assert placement.backend_index == 1
        assert pool.state(0) == "open"


class TestDegradationLadder:
    def test_healthy_service_serves_ensemble(self):
        service = make_service()
        service.register("s1", raw_history())
        forecast = service.forecast("s1")
        assert forecast.source == "ensemble"
        assert not forecast.degraded

    def test_reduced_rung_when_full_ensemble_fails(self, monkeypatch):
        service = make_service()
        service.register("s1", raw_history())

        def broken_predict(sensors, horizon):
            raise RuntimeError("ensemble mixer down")

        monkeypatch.setattr("repro.service.predict_lane", broken_predict)
        forecast = service.forecast("s1")
        assert forecast.source == "reduced"
        assert forecast.degraded
        assert np.isfinite(forecast.mean) and forecast.std > 0

    def test_ar_rung_when_backend_is_dead(self):
        backend = FaultInjectingBackend(
            SimulatedGpuBackend(), FaultProfile(dies_at_tick=10**6)
        )
        service = make_service(backends=backend)
        service.register("s1", raw_history())
        backend.profile = FaultProfile(dies_at_tick=0)  # dies now
        service.ingest("s1", 200.0)  # reading retained, answers stale
        forecast = service.forecast("s1")  # every backend rung fails
        assert forecast.source == "ar"
        assert forecast.degraded
        assert np.isfinite(forecast.mean) and forecast.std > 0

    def test_naive_rung_cannot_fail(self, monkeypatch):
        service = make_service()
        service.register("s1", raw_history())
        break_rungs_above_naive(monkeypatch)
        forecast = service.forecast("s1")
        assert forecast.source == "naive"
        assert forecast.mean == pytest.approx(raw_history()[-1])
        assert forecast.std > 0

    def test_naive_rung_floors_a_flat_tail(self, monkeypatch):
        """A flat tail's random-walk variance is 0: the rung serves
        NAIVE_VARIANCE, de-normalised, instead."""
        history = raw_history()
        history[-80:] = history[-80]
        service = make_service()
        service.register("s1", history)
        break_rungs_above_naive(monkeypatch)
        forecast = service.forecast("s1")
        assert forecast.source == "naive"
        raw_variance = ZNormStats.of(history).invert_variance(NAIVE_VARIANCE)
        assert forecast.std == math.sqrt(raw_variance) > 0

    def test_truncated_ladder_raises_forecast_error(self, monkeypatch):
        """The ladder has no final raise (``naive`` cannot fail), so a
        forecast() raises only what the walk below the ensemble rung
        itself raised, unwrapped."""
        service = make_service()
        service.register("s1", raw_history())
        monkeypatch.setattr("repro.service.predict_lane", fail)
        monkeypatch.setattr(PredictionService, "_predict_resilient", fail)
        with pytest.raises(RuntimeError, match="rung down"):
            service.forecast("s1")

    def test_nan_variance_never_served(self, monkeypatch):
        """Satellite: a non-PSD GP fit (NaN/zero variance) must degrade or
        raise, never reach the caller as a NaN interval."""
        service = make_service()
        service.register("s1", raw_history())

        def nan_predict(sensors, horizon):
            return np.full(len(sensors), 0.1), np.full(len(sensors), np.nan), {}

        monkeypatch.setattr("repro.service.predict_lane", nan_predict)
        monkeypatch.setattr(SMiLer, "predict_reduced", fail)
        forecast = service.forecast("s1")
        assert forecast.source == "ar"
        assert np.isfinite(forecast.std)

        # An AR fit with a NaN variance is refused too: naive serves.
        monkeypatch.setattr(
            PredictionService, "_ar_fallback",
            lambda self, sensor_id, horizon: (0.1, float("nan")),
        )
        forecast = service.forecast("s1")
        assert forecast.source == "naive"
        assert np.isfinite(forecast.std) and forecast.std > 0

    def test_degraded_forecasts_are_counted(self, monkeypatch):
        obs.reset()
        obs.enable()
        try:
            service = make_service()
            service.register("s1", raw_history())
            break_rungs_above_naive(monkeypatch)
            service.forecast("s1")
            prom = obs.to_prometheus(obs.get_registry())
            events = obs.get_event_log().tail()
            served = obs.served_degraded()
        finally:
            obs.disable()
            obs.reset()
        assert 'smiler_forecasts_total{horizon="1",source="naive"} 1' in prom
        assert served == {"naive": 1}
        (degraded,) = [e for e in events if e["kind"] == "degraded"]
        assert (degraded["sensor_id"], degraded["rung"]) == ("s1", "naive")


class TestForecastAllPartialBatch:
    def test_partial_batch_with_error_side_channel(self, monkeypatch):
        service = make_service()
        service.register("good", raw_history())
        service.register("bad", raw_history(seed=3))

        def one_row_fails(sensors, horizon):
            mean, variance, errors = predict_lane(sensors, horizon)
            for at, sensor in enumerate(sensors):
                if sensor.sensor_id == "bad":
                    errors[at] = RuntimeError("sensor-local meltdown")
            return mean, variance, errors

        monkeypatch.setattr("repro.service.predict_lane", one_row_fails)
        monkeypatch.setattr(PredictionService, "_predict_resilient", fail)
        batch = service.forecast_all()
        assert set(batch) == {"good"}
        assert batch.errors
        assert str(batch.errors["bad"]) == "rung down"
        assert batch["good"].source == "ensemble"

    def test_clean_batch_is_ok_and_dictlike(self):
        service = make_service()
        service.register("a", raw_history())
        service.register("b", raw_history(seed=1))
        batch = service.forecast_all()
        assert not batch.errors
        assert sorted(batch) == ["a", "b"]
        assert all(f.source == "ensemble" for f in batch.values())

    def test_bad_horizon_still_raises_up_front(self):
        service = make_service()
        service.register("a", raw_history())
        with pytest.raises(KeyError):
            service.forecast_all(horizon=9)


class TestFailover:
    def test_dead_backend_evacuated_and_fleet_keeps_serving(self):
        """The acceptance scenario: one of two backends dies mid-run; its
        sensors are evacuated and every sensor keeps being served."""
        dying = FaultInjectingBackend(
            SimulatedGpuBackend(), FaultProfile(dies_at_tick=60)
        )
        healthy = SimulatedGpuBackend()
        service = make_service(backends=[dying, healthy])
        rng = np.random.default_rng(0)
        for i in range(4):
            service.register(f"s{i}", raw_history(seed=i))
        assert service.sensors_per_backend() == [2, 2]

        for step in range(12):
            batch = service.forecast_all()
            assert not batch.errors, batch.errors  # nobody ever drops
            assert len(batch) == 4
            for sid in batch:
                service.ingest(sid, 200.0 + float(rng.normal()))

        assert service.sensors_per_backend() == [0, 4]  # evacuated
        states = [b["health"]["state"] for b in service.status()["backends"]]
        assert states[0] in ("open", "half_open")
        assert states[1] == "closed"
        # And the fleet is fully recovered: full-ensemble service resumes.
        final = service.forecast_all()
        assert all(f.source == "ensemble" for f in final.values())

    def test_evacuate_moves_sensors_and_reports_them(self):
        service = make_service(
            backends=[SimulatedGpuBackend(), SimulatedGpuBackend()]
        )
        for i in range(4):
            service.register(f"s{i}", raw_history(seed=i))
        stranded = [
            sid for sid in service.sensor_ids
            if service.placement_of(sid) == 0
        ]
        moved = service.evacuate(0)
        assert moved == sorted(stranded)
        assert all(service.placement_of(sid) == 1 for sid in moved)
        assert service.sensors_per_backend()[0] == 0
        with pytest.raises(IndexError):
            service.evacuate(7)

    def test_evacuated_sensor_forecasts_match_fresh_build(self):
        """Migration rebuilds the index from the accrued series, so the
        moved sensor's forecast matches a never-moved twin."""
        service = make_service(
            backends=[SimulatedGpuBackend(), SimulatedGpuBackend()]
        )
        full = raw_history(n=620, seed=4)
        service.register("s1", full[:600])
        twin = make_service()
        twin.register("s1", full[:600])
        for value in full[600:610]:
            service.ingest("s1", value)
            twin.ingest("s1", value)
        source_index = service.placement_of("s1")
        service.evacuate(source_index)
        assert service.placement_of("s1") == 1 - source_index
        moved = service.forecast("s1")
        fresh = twin.forecast("s1")
        assert moved.source == fresh.source == "ensemble"
        assert moved.mean == pytest.approx(fresh.mean, rel=1e-4)

    def test_transient_burst_is_retried_bit_identically(self):
        """One injected kernel fault below the breaker threshold: the
        retry reruns the same kernels and serves bit-identical answers."""
        def run(backend):
            service = make_service(backends=backend)
            service.register("s1", raw_history())
            outs = []
            for value in (201.0, 199.5, 202.3, 198.7):
                forecast = service.forecast("s1")
                outs.append((forecast.mean, forecast.std, forecast.source))
                service.ingest("s1", value)
            return outs

        clean = run(SimulatedGpuBackend())
        faulty = run(FaultInjectingBackend(
            SimulatedGpuBackend(),
            FaultProfile(seed=0, kernel_error_rate=1.0, burst=(8, 9)),
        ))
        assert all(source == "ensemble" for _, _, source in faulty)
        assert faulty == clean


class TestIngestLane:
    """An ingest lane absorbs every reading host-side, then runs one
    fused search per backend — which fails, and is retried, as a group."""

    N = 4

    def make(self):
        service = make_service(
            backends=FaultInjectingBackend(SimulatedGpuBackend(), FaultProfile()),
        )
        for i in range(self.N):
            service.register(f"s{i}", raw_history(seed=i))
        assert not service.forecast_all().errors  # warm: every sensor has answers
        return service

    def readings(self, value=201.0):
        return {f"s{i}": value + i for i in range(self.N)}

    def backend(self, service):
        """The authoritative backend object (an off-process engine hands
        a new one back at every sync)."""
        service.status()
        return service.backends[0]

    def health(self, service):
        return service.status()["backends"][0]["health"]

    def inject(self, service, n_ops, **rates):
        """The next ``n_ops`` backend operations misbehave."""
        backend = self.backend(service)
        backend.profile = FaultProfile(
            seed=5, burst=(backend.tick, backend.tick + n_ops), **rates
        )

    def test_faulted_fused_launch_is_retried_inside_the_lane(self):
        service = self.make()
        successes = self.health(service)["successes_total"]
        # Every attempt but the last dies on the burst's next op; the
        # last runs clean.
        failed = SEARCH_ATTEMPTS - 1
        self.inject(service, failed, kernel_error_rate=1.0)
        service.ingest_many(self.readings())
        health = self.health(service)
        assert self.backend(service).injected["kernel_error"] == failed
        # One breaker failure per failed *attempt*, success per sensor.
        assert health["failures_total"] == failed
        assert health["successes_total"] == successes + self.N
        assert health["state"] == "closed"
        for sid in service.sensor_ids:
            smiler = service.sensor(sid)
            assert smiler.now == smiler.series.size == 601
            assert smiler._answers is not None  # fresh
        # So the forecasts that follow pay for no search at all.
        tick = self.backend(service).tick
        batch = service.forecast_all()
        assert not batch.errors and self.backend(service).tick == tick
        assert all(f.source == "ensemble" for f in batch.values())

    def test_exhausted_attempts_leave_the_whole_group_stale_but_served(self):
        service = self.make()
        self.inject(service, SEARCH_ATTEMPTS, kernel_error_rate=1.0)
        service.ingest_many(self.readings())
        # The attempts are bounded: one failure each, no further try.
        assert self.backend(service).injected["kernel_error"] == SEARCH_ATTEMPTS
        assert self.health(service)["failures_total"] == SEARCH_ATTEMPTS
        for sid in service.sensor_ids:
            smiler = service.sensor(sid)
            assert smiler.now == smiler.series.size == 601  # retained
            assert smiler._answers is None  # stale, all of them
        # The burst is over: the forecasts re-search, sensor by sensor.
        tick = self.backend(service).tick
        batch = service.forecast_all()
        assert not batch.errors and len(batch) == self.N
        assert self.backend(service).tick > tick
        assert all(f.source == "ensemble" for f in batch.values())

    def test_a_single_ingest_is_a_lane_of_one(self):
        service = self.make()
        self.inject(service, 1, kernel_error_rate=1.0)
        service.ingest("s1", 203.0)
        assert self.health(service)["failures_total"] == 1
        smiler = service.sensor("s1")
        assert smiler.now == 601 and smiler._answers is not None
        assert service.sensor("s0").now == 600

    def test_injected_nan_reaches_one_pool_and_no_answer(self):
        service, clean = self.make(), self.make()
        self.inject(service, 1, kernel_nan_rate=1.0)
        service.ingest_many(self.readings())
        clean.ingest_many(self.readings())
        assert self.backend(service).injected["kernel_nan"] == 1
        differing = []
        for sid in service.sensor_ids:
            got, want = service.sensor(sid)._answers, clean.sensor(sid)._answers
            for d in got:
                assert np.isfinite(got[d].distances).all()
                if not np.array_equal(got[d].starts, want[d].starts):
                    differing.append((sid, d))
        # One NaN in one fused launch: one (sensor, end) row, dropped at
        # every item length it was read at, so at most one sensor's
        # answers can move (whether they do depends on whether the row
        # held an answer: tests/test_search_lane.py::TestFusedNanRow
        # poisons a chosen row and pins exactly what changes).
        assert len({sid for sid, _ in differing}) <= 1


class TestOneBreakerUpdatePerLane:
    """Lanes record their served sensors in one ``record_success``; a
    seeded ``flaky-kernels`` run must leave the pool exactly as
    per-sensor calls do."""

    def run(self):
        service = make_service(
            backends=[
                FaultInjectingBackend(
                    SimulatedGpuBackend(),
                    FaultProfile(name="flaky-kernels", seed=70 + shard,
                                 kernel_error_rate=0.05),
                )
                for shard in range(2)
            ],
            breaker=BreakerConfig(failure_threshold=2, cooldown_ops=16),
        )
        for i in range(12):
            service.register(f"s{i}", raw_history(seed=i))
        rng = np.random.default_rng(3)
        for _ in range(40):
            service.forecast_all()
            service.ingest_many(
                {f"s{i}": 200.0 + 10.0 * rng.normal() for i in range(12)}
            )
        pool = service._pool
        seen = (
            pool._op,
            [pool.health_dict(i) for i in range(2)],
            [pool.health(i).opened_at_op for i in range(2)],
            [backend.injected["kernel_error"] for backend in service.backends],
        )
        service.close()
        return seen

    def test_pool_health_equals_the_per_sensor_calls(self, monkeypatch):
        counted = self.run()
        single = BackendPool.record_success

        def per_sensor(pool, index, count=1):
            for _ in range(count):
                single(pool, index)

        monkeypatch.setattr(BackendPool, "record_success", per_sensor)
        assert self.run() == counted
        ops, health, _, injected = counted
        assert sum(injected) > 0 and sum(h["failures_total"] for h in health) > 0
        assert sum(h["successes_total"] for h in health) > 40 * 12


class TestForecastLane:
    """A forecast lane serves the ``ensemble`` rung stacked: its stale
    members re-search as one group — which fails, is retried and fails
    over as a group — and whoever the rung did not serve walks the lower
    rungs alone.  A single ``forecast()`` is a lane of one."""

    N = 16

    def make(self, backends=None, n=None):
        service = make_service(
            backends=backends or FaultInjectingBackend(
                SimulatedGpuBackend(), FaultProfile()
            ),
        )
        for i in range(self.N if n is None else n):
            service.register(f"s{i:02d}", raw_history(seed=i))
        return service

    def readings(self, service, value=201.0):
        return {sid: value + i for i, sid in enumerate(service.sensor_ids)}

    def backend(self, service, index=0):
        service.status()  # an off-process engine hands back a new object
        return service.backends[index]

    def health(self, service, index=0):
        return service.status()["backends"][index]["health"]

    def inject(self, service, n_ops, **rates):
        backend = self.backend(service)
        backend.profile = FaultProfile(
            seed=5, burst=(backend.tick, backend.tick + n_ops), **rates
        )

    def stale_lane(self):
        """A warm lane whose last ingest's fused search failed: every
        reading retained, every answer stale."""
        service = self.make()
        assert not service.forecast_all().errors
        self.inject(service, SEARCH_ATTEMPTS, kernel_error_rate=1.0)
        service.ingest_many(self.readings(service))
        assert all(
            service.sensor(sid)._answers is None for sid in service.sensor_ids
        )
        return service

    def test_a_lane_of_one_is_the_single_forecast_op_for_op(self):
        """The rung served, the fault tick and the breaker's counters
        after every forecast of a seeded flaky run — pinned when a lane
        of one matched the per-sensor ``_forecast_op`` op for op, and
        re-pinned when a search became three faultable ops for all item
        lengths (was three per item length): fewer ops draw fewer
        faults, so more forecasts are served from the ensemble."""
        backend = FaultInjectingBackend(
            SimulatedGpuBackend(), FaultProfile(seed=3, kernel_error_rate=0.25)
        )
        service = make_service(backends=backend)
        service.register("s1", raw_history())
        rng = np.random.default_rng(1)
        seen = []
        for step in range(12):
            forecast = service.forecast("s1", horizon=(1, 3)[step % 2])
            health = self.health(service)
            seen.append((
                forecast.source, self.backend(service).tick,
                health["failures_total"], health["successes_total"],
            ))
            service.ingest("s1", 200.0 + float(rng.normal()))
        assert seen == [
            ("ar", 6, 2, 0), ("ensemble", 14, 4, 1), ("ensemble", 17, 4, 3),
            ("ensemble", 20, 4, 5), ("ensemble", 25, 5, 7),
            ("ensemble", 28, 5, 9), ("ensemble", 39, 8, 10),
            ("ensemble", 44, 9, 12), ("ensemble", 47, 9, 14),
            ("ensemble", 52, 10, 16), ("ensemble", 56, 11, 18),
            ("ensemble", 59, 11, 20),
        ]
        assert self.backend(service).injected["kernel_error"] == 14

    def test_a_stale_lane_re_searches_once_not_once_per_sensor(self):
        service = self.stale_lane()
        backend, before = self.backend(service), self.health(service)
        tick, launches = backend.tick, backend.cost.launches
        batch = service.forecast_all()
        assert not batch.errors and len(batch) == self.N
        assert all(f.source == "ensemble" for f in batch.values())
        backend, after = self.backend(service), self.health(service)
        # One fused search: two verifications and one k-selection serve
        # every item length and are the fault ticks; with an LB_Kim
        # launch per item length and the one shift-sum that is
        # 1 + len(elv) + 3 launches — for 16 sensors.
        assert backend.tick - tick == 3
        assert backend.cost.launches - launches == 1 + len(CONFIG.elv) + 3
        assert after["failures_total"] == before["failures_total"]
        assert after["successes_total"] == before["successes_total"] + self.N
        # Every answer is current again: the next batch is free.
        tick = backend.tick
        assert not service.forecast_all().errors and self.backend(service).tick == tick

    def test_a_failed_attempt_is_one_breaker_charge_for_the_lane(self):
        service = self.stale_lane()
        before = self.health(service)
        tick = self.backend(service).tick
        # Every attempt but the last dies on the burst's next op; the
        # last runs clean.
        failed = SEARCH_ATTEMPTS - 1
        self.inject(service, failed, kernel_error_rate=1.0)
        batch = service.forecast_all()
        assert not batch.errors
        assert all(f.source == "ensemble" for f in batch.values())
        after = self.health(service)
        assert after["failures_total"] == before["failures_total"] + failed
        assert after["successes_total"] == before["successes_total"] + self.N
        assert after["state"] == "closed"
        assert self.backend(service).tick - tick == failed + 3

    def test_members_still_stale_after_the_budget_descend_alone(self):
        service = self.stale_lane()
        before = self.health(service)
        tick = self.backend(service).tick
        # Exactly the group's attempts fail; what follows is clean, so
        # each member's ``reduced`` rung re-searches it — alone.
        self.inject(service, SEARCH_ATTEMPTS, kernel_error_rate=1.0)
        batch = service.forecast_all()
        assert not batch.errors and len(batch) == self.N
        assert all(f.source == "reduced" for f in batch.values())
        after = self.health(service)
        assert after["failures_total"] == before["failures_total"] + SEARCH_ATTEMPTS
        assert after["successes_total"] == before["successes_total"]
        assert self.backend(service).tick - tick == SEARCH_ATTEMPTS + self.N * 3

        # A dead backend: the group's attempts, then every member walks
        # reduced (its own search fails too) -> ar on its own.
        dead = self.stale_lane()
        backend = self.backend(dead)
        backend.profile = FaultProfile(dies_at_tick=backend.tick)
        before = self.health(dead)
        batch = dead.forecast_all()
        assert not batch.errors and len(batch) == self.N
        assert all(f.source == "ar" and f.degraded for f in batch.values())
        assert (
            self.health(dead)["failures_total"]
            == before["failures_total"] + SEARCH_ATTEMPTS
        )

    def test_failover_mid_lane_re_homes_and_serves_from_the_new_backend(self):
        dying = FaultInjectingBackend(SimulatedGpuBackend(), FaultProfile())
        service = self.make(backends=[dying, SimulatedGpuBackend()])
        assert service.sensors_per_backend() == [8, 8]
        assert not service.forecast_all().errors
        backend = self.backend(service)
        backend.profile = FaultProfile(dies_at_tick=backend.tick)
        service.ingest_many(self.readings(service))  # two charges: closed
        assert self.health(service)["failures_total"] == 2
        assert self.health(service)["state"] == "closed"

        batch = service.forecast_all()  # the third charge trips it
        assert not batch.errors and len(batch) == self.N
        if service.engine.name != "process":
            # The lane's one failed attempt opened the breaker; its eight
            # members were re-homed, re-searched on the healthy backend
            # as one group with a fresh budget, and served from there.
            assert self.health(service)["failures_total"] == 3
            assert all(f.source == "ensemble" for f in batch.values())
        # (Shard workers never fail over: the parent evacuates at the
        # batch boundary, so that batch degrades and the next recovers.)
        assert service.sensors_per_backend() == [0, self.N]
        final = service.forecast_all()
        assert not final.errors
        assert all(f.source == "ensemble" for f in final.values())

    def test_kept_errors_tie_no_service_into_a_reference_cycle(self):
        """The errors a lane keeps past their ``except`` block (a failed
        group search, a member's way down the ladder) carry no traceback:
        one would hold the frames that failed — the service, the lane's
        stacked index — until the cycle collector happens to run."""
        gc.disable()
        try:
            service = self.stale_lane()  # a failed ingest search
            backend = self.backend(service)
            backend.profile = FaultProfile(dies_at_tick=backend.tick)
            batch = service.forecast_all()  # group fails, members descend
            assert all(f.source == "ar" for f in batch.values())
            service.close()
            gone = weakref.ref(service)
            del service, backend, batch
            assert gone() is None
        finally:
            gc.enable()

    def test_ladders_without_or_with_only_the_ensemble_rung(self, monkeypatch):
        """With the ensemble rung the only one that works (every rung
        below it raising), a dead backend leaves each member's own error
        in ``batch.errors`` and a single forecast raises it."""
        monkeypatch.setattr(PredictionService, "_predict_resilient", fail)
        only = self.stale_lane()
        backend = self.backend(only)
        backend.profile = FaultProfile(dies_at_tick=backend.tick)
        batch = only.forecast_all()
        assert len(batch) == 0 and sorted(batch.errors) == only.sensor_ids
        assert all(
            str(error) == "rung down" for error in batch.errors.values()
        )
        with pytest.raises(RuntimeError, match="rung down"):
            only.forecast("s00")

    @pytest.mark.parametrize("backend_name", ["simulated", "native"])
    def test_lifecycle_equals_standalone_sensors_bit_for_bit(
        self, backend_name, tmp_path
    ):
        """register -> ingest_many -> forecast_all -> snapshot -> restore
        -> forecast_all against standalone ``SMiLer``s fed the same
        readings."""
        from repro.backend import make_backend

        def make():
            return make_service(
                backends=[make_backend(backend_name) for _ in range(2)]
            )

        service, twins, stats = make(), {}, {}
        for i in range(8):
            sid, history = f"s{i}", raw_history(n=400 + 7 * i, seed=i)
            service.register(sid, history)
            stats[sid] = ZNormStats.of(history)
            twins[sid] = SMiLer(
                stats[sid].apply(history), CONFIG,
                backend=make_backend(backend_name), sensor_id=sid,
            )

        def check(batch):
            assert not batch.errors and sorted(batch) == sorted(twins)
            for sid, twin in twins.items():
                output = twin.predict(horizon=1)[1]
                mean = float(stats[sid].invert(np.array([output.mean]))[0])
                variance = float(
                    stats[sid].invert_variance(np.array([output.variance]))[0]
                )
                assert batch[sid].mean.hex() == mean.hex()
                assert batch[sid].std.hex() == float(np.sqrt(variance)).hex()
                assert batch[sid].source == "ensemble"

        rng = np.random.default_rng(4)
        for step in range(6):
            if step == 3:
                service.snapshot(tmp_path)
                service.close()
                service = make()
                service.restore(tmp_path)
                # Everyone is stale after a restore; the twins go
                # through their own snapshot too.
                from repro.core.persistence import (
                    build_smiler, load_snapshot, save_smiler,
                )

                for sid, twin in twins.items():
                    save_smiler(twin, tmp_path / f"twin-{sid}.npz")
                    twins[sid] = build_smiler(
                        load_snapshot(tmp_path / f"twin-{sid}.npz"),
                        backend=make_backend(backend_name),
                    )
            check(service.forecast_all())
            readings = {
                sid: 200.0 + 50.0 * float(rng.normal()) for sid in twins
            }
            service.ingest_many(readings)
            for sid, value in readings.items():
                twins[sid].observe(stats[sid].apply(np.array([value]))[0])
        check(service.forecast_all())
        service.close()
