"""Differential tests: concurrent serving is bit-identical to sequential.

The serving layer's concurrency contract (``docs/architecture.md``,
"Threading model") is that ``forecast_all`` / ``ingest_many`` with
``max_workers > 1`` return *exactly* what a sequential run returns: the
same :class:`~repro.service.Forecast` floats, the same
:attr:`~repro.service.ForecastBatch.errors`, the same per-backend
simulated-time ledgers.  These tests pin that contract differentially —
two identically-constructed services, one sequential and one with four
lanes, driven through the same workload — and then stress the breaker /
memory-ledger invariants under injected chaos.
"""

import numpy as np
import pytest

from repro.backend import BACKEND_NAMES, BreakerConfig, make_backend
from repro.core import SMiLerConfig
from repro.faults import FaultProfile
from repro.service import (
    PredictionService,
    ResiliencePolicy,
    ServiceConfig,
)

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1, 3),
    predictor="ar",
)

N_SENSORS = 52
N_BACKENDS = 4
HISTORY_POINTS = 280


def make_workload(n_sensors=N_SENSORS, n_points=HISTORY_POINTS, n_future=8):
    """Seeded histories + future readings, shared by both services."""
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
    workers,
    n_backends=N_BACKENDS,
    fault_profiles=None,
    resilience=None,
    breaker=None,
):
    """A fresh service over ``n_backends`` identically-seeded backends."""
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
        resilience=resilience,
        breaker=breaker,
        service_config=ServiceConfig(
            max_workers=workers, engine="thread" if workers > 1 else None
        ),
    )


def drive(service, histories, futures, rounds=2):
    """Register the fleet, then alternate forecast_all / ingest_many."""
    for sensor_id, history in histories.items():
        service.register(sensor_id, history)
    batches = []
    for step in range(rounds):
        batches.append(service.forecast_all())
        service.ingest_many(
            {sid: float(futures[sid][step]) for sid in histories}
        )
    batches.append(service.forecast_all())
    return batches


def assert_batches_identical(sequential, concurrent):
    """Bit-identical forecasts and matching error side-channels."""
    assert len(sequential) == len(concurrent)
    for batch_seq, batch_con in zip(sequential, concurrent):
        # Forecast is a frozen dataclass: == compares every float exactly.
        assert dict(batch_seq) == dict(batch_con)
        assert set(batch_seq.errors) == set(batch_con.errors)
        for sensor_id, error_seq in batch_seq.errors.items():
            error_con = batch_con.errors[sensor_id]
            assert type(error_seq) is type(error_con)
            assert str(error_seq) == str(error_con)


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
class TestConcurrentParity:
    def test_fault_free_bit_identical(self, backend_name):
        """workers=4 serves the exact Forecasts of workers=1 — 52 sensors
        sharded over 4 backends, multiple forecast/ingest rounds."""
        histories, futures = make_workload()
        sequential = build_service(backend_name, workers=1)
        concurrent = build_service(backend_name, workers=4)
        batches_seq = drive(sequential, histories, futures)
        batches_con = drive(concurrent, histories, futures)
        assert_batches_identical(batches_seq, batches_con)
        assert all(batch.ok for batch in batches_seq)
        assert all(len(batch) == N_SENSORS for batch in batches_con)

    def test_placements_and_sim_time_identical(self, backend_name):
        """Lane-per-shard keeps every backend's operation stream — hence
        its simulated-time ledger — identical to the sequential run."""
        histories, futures = make_workload(n_sensors=24)
        sequential = build_service(backend_name, workers=1)
        concurrent = build_service(backend_name, workers=4)
        drive(sequential, histories, futures, rounds=1)
        drive(concurrent, histories, futures, rounds=1)
        assert (
            sequential.sensors_per_backend()
            == concurrent.sensors_per_backend()
        )
        for sid in histories:
            assert sequential.placement_of(sid) == concurrent.placement_of(sid)
        elapsed_seq = [b.elapsed_s for b in sequential.backends]
        elapsed_con = [b.elapsed_s for b in concurrent.backends]
        assert elapsed_seq == elapsed_con  # exact float equality
        if backend_name == "simulated":
            assert all(s > 0.0 for s in elapsed_seq)

    def test_error_side_channel_identical(self, backend_name):
        """Injected failures land in ForecastBatch.errors identically.

        One seeded FaultProfile per backend and a truncated ladder with
        failover off make every injection deterministic per backend, so
        the *same* sensors must fail with the *same* exceptions at any
        worker count — and the surviving forecasts stay bit-identical.
        """
        histories, futures = make_workload(n_sensors=24)
        profiles = [
            FaultProfile(seed=100 + i, kernel_error_rate=0.08,
                         kernel_nan_rate=0.05)
            for i in range(N_BACKENDS)
        ]
        policy = ResiliencePolicy(
            attempts=1, ladder=("ensemble",), failover=False
        )
        sequential = build_service(
            backend_name, workers=1, fault_profiles=profiles, resilience=policy
        )
        concurrent = build_service(
            backend_name, workers=4, fault_profiles=profiles, resilience=policy
        )
        batches_seq = drive(sequential, histories, futures, rounds=3)
        batches_con = drive(concurrent, histories, futures, rounds=3)
        assert_batches_identical(batches_seq, batches_con)
        # The profile rates make silence astronomically unlikely: the
        # test must actually exercise the error side-channel.
        assert any(batch.errors for batch in batches_seq)
        assert any(len(batch) > 0 for batch in batches_seq)


class TestWorkerConfiguration:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_workers=-2)

    def test_default_is_sequential(self):
        service = PredictionService(CONFIG, min_history=100)
        assert service.max_workers == 1

    def test_status_reports_workers(self):
        service = build_service("native", workers=4, n_backends=2)
        assert service.status()["max_workers"] == 4


class TestChaosStress:
    """Race the lanes against injected faults, mid-batch failover and
    evacuation, then assert the structural invariants from a quiesced
    state after every batch (forecast_all has returned and its executor
    is shut down, so nothing mutates during the checks)."""

    N_CHAOS_BACKENDS = 3

    def _build(self, workers=4):
        profiles = [
            FaultProfile(seed=7 + i, kernel_error_rate=0.15,
                         kernel_nan_rate=0.05, malloc_error_rate=0.02)
            for i in range(self.N_CHAOS_BACKENDS)
        ]
        return build_service(
            "simulated",
            workers=workers,
            n_backends=self.N_CHAOS_BACKENDS,
            fault_profiles=profiles,
            breaker=BreakerConfig(failure_threshold=2, cooldown_ops=8),
        )

    def _check_invariants(self, service, capacities):
        pool = service._pool
        healthy = set(pool.healthy_indices())
        for i in range(len(pool)):
            state = pool.state(i)
            assert state in ("closed", "open", "half_open")
            # An open breaker never accepts placements; a non-open one
            # always does (fail-open is a placement-time fallback, not a
            # health state).
            assert (i in healthy) == (state != "open")
            assert pool.admits(i) == (state != "open")
            record = pool.health_dict(i)
            assert record["failures_total"] >= 0
            assert record["successes_total"] >= 0
            assert record["trips"] >= (1 if state == "open" else 0)
        # Memory accounting: every backend's ledger still sums to its
        # capacity, and the pool total equals the placements' total —
        # failover re-admissions never leak or double-free a reservation.
        for i, backend in enumerate(service.backends):
            assert backend.allocated_bytes >= 0
            assert backend.free_bytes >= 0
            assert backend.allocated_bytes + backend.free_bytes == capacities[i]
        placed = sum(
            p.allocation.nbytes for p in service._placements.values()
        )
        assert placed == pool.allocated_bytes

    def test_invariants_hold_under_chaos(self):
        histories, futures = make_workload(n_sensors=24)
        service = self._build()
        registered = {}
        for sensor_id, history in histories.items():
            try:
                service.register(sensor_id, history)
            except Exception:
                continue  # an injected admission failure is part of the chaos
            registered[sensor_id] = history
        assert len(registered) >= len(histories) // 2
        capacities = [
            b.allocated_bytes + b.free_bytes for b in service.backends
        ]
        for step in range(6):
            batch = service.forecast_all()
            fleet = set(service.sensor_ids)
            # Every sensor is accounted for exactly once: a forecast or
            # an error, never both, never neither.
            assert set(batch) | set(batch.errors) == fleet
            assert not set(batch) & set(batch.errors)
            self._check_invariants(service, capacities)
            service.ingest_many(
                {sid: float(futures[sid][step]) for sid in service.sensor_ids}
            )
            self._check_invariants(service, capacities)

    def test_chaos_is_reproducible(self):
        """Two identical sequential chaos runs inject identical faults —
        the chaos suite is a regression test, not a flake source.  (Run
        at workers=1: with failover on, *when* a tripped backend
        evacuates depends on lane interleaving, so cross-run determinism
        is a sequential-mode guarantee.)"""
        histories, futures = make_workload(n_sensors=12)
        outcomes = []
        for _ in range(2):
            service = self._build(workers=1)
            for sensor_id, history in histories.items():
                try:
                    service.register(sensor_id, history)
                except Exception:
                    pass
            batch = service.forecast_all()
            outcomes.append((dict(batch), sorted(batch.errors)))
        assert outcomes[0][1] == outcomes[1][1]
