"""A stateful model of the service's sensor lifecycle.

Hypothesis drives one :class:`PredictionService` on two backends through
register, deregister, ``ingest_many``, ``forecast_all``, ``evacuate``
and snapshot → close → restore into a fresh service.  The model is a
dict of standalone :class:`SMiLer` twins fed the same normalised
readings; the service must serve every forecast from the ``ensemble``
rung, bit for bit equal to its twin's.  After every rule the fleet is on
exactly one shard per sensor and each backend's memory ledger equals
the reservations of the sensors it hosts.

The engine is the environment's (``REPRO_EXEC``, inline by default).
Fault bursts, worker crashes and close-and-reopen are not modelled yet.
"""

import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.backend import make_backend
from repro.core import SMiLerConfig
from repro.core.persistence import build_smiler, load_snapshot, save_smiler
from repro.core.smiler import SMiLer
from repro.service import PredictionService
from repro.timeseries.series import ZNormStats

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1, 3),
    predictor="ar",
)
MAX_FLEET = 4


def raw_history(n, seed):
    rng = np.random.default_rng(seed)
    return 200.0 + 50.0 * (
        np.sin(np.arange(n) / 9.0) + 0.05 * rng.normal(size=n)
    )


class ServiceModel(RuleBasedStateMachine):
    BACKEND = "simulated"

    def __init__(self):
        super().__init__()
        self.service = self.make_service()
        self.twins: dict[str, SMiLer] = {}
        self.stats: dict[str, ZNormStats] = {}
        self.registered = 0

    def make_service(self):
        return PredictionService(
            CONFIG, min_history=100,
            backends=[make_backend(self.BACKEND) for _ in range(2)],
        )

    def teardown(self):
        self.service.close()

    @precondition(lambda self: len(self.twins) < MAX_FLEET)
    @rule(n=st.integers(110, 160), seed=st.integers(0, 2**16))
    def register(self, n, seed):
        sensor_id = f"s{self.registered}"
        self.registered += 1
        history = raw_history(n, seed)
        self.service.register(sensor_id, history)
        stats = ZNormStats.of(history)
        self.stats[sensor_id] = stats
        self.twins[sensor_id] = SMiLer(
            stats.apply(history), CONFIG,
            backend=make_backend(self.BACKEND), sensor_id=sensor_id,
        )

    @precondition(lambda self: self.twins)
    @rule(data=st.data())
    def deregister(self, data):
        sensor_id = data.draw(st.sampled_from(sorted(self.twins)))
        self.service.deregister(sensor_id)
        del self.twins[sensor_id], self.stats[sensor_id]

    @rule(mask=st.integers(0, 2**MAX_FLEET - 1), seed=st.integers(0, 2**16))
    def ingest_many(self, mask, seed):
        rng = np.random.default_rng(seed)
        readings = {
            sensor_id: 200.0 + 50.0 * float(rng.normal())
            for at, sensor_id in enumerate(sorted(self.twins))
            if mask >> at & 1
        }
        self.service.ingest_many(readings)
        for sensor_id, value in readings.items():
            self.twins[sensor_id].observe(
                self.stats[sensor_id].apply(np.array([value]))[0]
            )

    @rule()
    def forecast_all(self):
        batch = self.service.forecast_all()
        assert not batch.errors and sorted(batch) == sorted(self.twins)
        for sensor_id, twin in self.twins.items():
            stats = self.stats[sensor_id]
            output = twin.predict(horizon=1)[1]
            mean = float(stats.invert(np.array([output.mean]))[0])
            variance = float(
                stats.invert_variance(np.array([output.variance]))[0]
            )
            forecast = batch[sensor_id]
            assert forecast.source == "ensemble"
            assert forecast.mean.hex() == mean.hex()
            assert forecast.std.hex() == float(np.sqrt(variance)).hex()

    @rule(backend_index=st.integers(0, 1))
    def evacuate(self, backend_index):
        self.service.evacuate(backend_index)

    @rule()
    def snapshot_close_restore(self):
        with tempfile.TemporaryDirectory() as directory:
            self.service.snapshot(directory)
            self.service.close()
            self.service = self.make_service()
            self.service.restore(directory)
            for sensor_id, twin in self.twins.items():
                path = f"{directory}/twin-{sensor_id}.npz"
                save_smiler(twin, path)
                self.twins[sensor_id] = build_smiler(
                    load_snapshot(path), backend=make_backend(self.BACKEND)
                )

    @invariant()
    def one_shard_per_sensor(self):
        assert sum(self.service.sensors_per_backend()) == len(self.twins)
        assert self.service.sensor_ids == sorted(self.twins)

    @invariant()
    def ledgers_equal_reservations(self):
        # Admission reserves the exact estimate and never adjusts it, so
        # the ledger is compared with reservations, not memory_bytes().
        self.service.status()  # an off-process engine syncs back first
        reserved = [0] * len(self.service.backends)
        for placement in self.service._placements.values():
            reserved[placement.backend_index] += placement.allocation.nbytes
        assert [
            backend.allocated_bytes for backend in self.service.backends
        ] == reserved


MODEL_SETTINGS = settings(
    max_examples=40, stateful_step_count=30, deadline=None, derandomize=True,
    database=None,
)


class NativeServiceModel(ServiceModel):
    BACKEND = "native"


ServiceModel.TestCase.settings = MODEL_SETTINGS
NativeServiceModel.TestCase.settings = MODEL_SETTINGS
TestSimulatedServiceModel = ServiceModel.TestCase
TestNativeServiceModel = NativeServiceModel.TestCase
