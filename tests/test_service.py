"""Tests for the deployment-shaped PredictionService."""

import numpy as np
import pytest

from repro.backend import NativeBackend, SimulatedGpuBackend
from repro.core import SMiLerConfig
from repro.core.smiler import SMiLer
from repro.gpu.costmodel import DeviceSpec
from repro.service import Forecast, PredictionService, SnapshotCorruptionError

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


class TestRegistration:
    def test_register_and_list(self):
        service = make_service()
        service.register("s1", raw_history())
        service.register("s2", raw_history(seed=1))
        assert service.sensor_ids == ["s1", "s2"]

    def test_duplicate_rejected(self):
        service = make_service()
        service.register("s1", raw_history())
        with pytest.raises(ValueError):
            service.register("s1", raw_history())

    def test_short_history_rejected(self):
        with pytest.raises(ValueError):
            make_service().register("s1", raw_history(n=50))

    def test_non_finite_history_rejected(self):
        history = raw_history()
        history[10] = np.nan
        with pytest.raises(ValueError):
            make_service().register("s1", history)

    def test_deregister(self):
        service = make_service()
        service.register("s1", raw_history())
        service.deregister("s1")
        assert service.sensor_ids == []
        with pytest.raises(KeyError):
            service.deregister("s1")

    def test_min_history_validation(self):
        with pytest.raises(ValueError):
            PredictionService(CONFIG, min_history=0)

    def test_deregister_frees_device_memory(self):
        service = make_service()
        service.register("s1", raw_history())
        assert service.backends[0].allocated_bytes > 0
        service.deregister("s1")
        assert service.backends[0].allocated_bytes == 0

    def test_register_deregister_loop_never_exhausts_device(self):
        """Regression: deregister used to leak the register() allocation,
        so churning sensors eventually raised a spurious GpuMemoryError."""
        probe = make_service()
        probe.register("s", raw_history())
        footprint = probe.backends[0].allocated_bytes
        # Headroom for ~2 sensors: any leak blows up within a few laps.
        device = SimulatedGpuBackend(DeviceSpec(memory_bytes=int(2.5 * footprint)))
        service = make_service(backends=device)
        for _ in range(50):
            service.register("s", raw_history())
            service.deregister("s")
        assert service.backends[0].allocated_bytes == 0


class TestExactReservation:
    """Admission reserves the analytic estimate and never adjusts it:
    at every point a sensor is (re-)admitted, estimate ==
    ``memory_bytes()`` == what the pool holds for it."""

    BACKENDS = {"simulated": SimulatedGpuBackend, "native": NativeBackend}

    @staticmethod
    def assert_exact(service, sensor_ids):
        assert sensor_ids
        for sensor_id in sensor_ids:
            smiler = service.sensor(sensor_id)
            estimate = SMiLer.estimate_memory_bytes(
                smiler.series.size, smiler.config
            )
            reserved = service._placements[sensor_id].allocation.nbytes
            assert estimate == smiler.memory_bytes() == reserved

    def make_fleet(self, backend_name, n_backends=1):
        service = make_service(
            backends=[self.BACKENDS[backend_name]() for _ in range(n_backends)]
        )
        for i in range(3):
            full = raw_history(n=500 + 37 * i, seed=i)
            service.register(f"s{i}", full[:-5])
            self.assert_exact(service, [f"s{i}"])
            for value in full[-5:]:  # grow past the registered length
                service.ingest(f"s{i}", value)
        return service

    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_register_and_restore(self, backend_name, tmp_path):
        service = self.make_fleet(backend_name)
        assert service._pool.allocated_bytes == sum(
            p.allocation.nbytes for p in service._placements.values()
        )
        service.snapshot(tmp_path)
        restored = make_service(backends=[self.BACKENDS[backend_name]()])
        restored.restore(tmp_path)
        self.assert_exact(restored, restored.sensor_ids)
        assert restored._pool.allocated_bytes == sum(
            restored.sensor(sid).memory_bytes() for sid in restored.sensor_ids
        )

    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_evacuate(self, backend_name):
        service = self.make_fleet(backend_name, n_backends=2)
        moved = service.evacuate(0)
        self.assert_exact(service, moved)
        assert service.backends[0].allocated_bytes == 0


class TestSensorIdValidation:
    @pytest.mark.parametrize(
        "bad_id",
        [
            "",                  # empty
            "building/3",        # path separator: would nest snapshot dirs
            "..",                # traversal
            "_norms",            # collides with the normalisation archive
            ".hidden",           # dotfile
            "a b",               # whitespace
            "s1\n",              # trailing control character
        ],
    )
    def test_bad_ids_rejected_at_register(self, bad_id):
        with pytest.raises(ValueError, match="invalid sensor id"):
            make_service().register(bad_id, raw_history())

    def test_non_string_id_rejected(self):
        with pytest.raises(ValueError, match="invalid sensor id"):
            make_service().register(7, raw_history())

    @pytest.mark.parametrize(
        "good_id", ["s1", "building-3_floor:2", "A.b", "0"]
    )
    def test_good_ids_accepted(self, good_id):
        service = make_service()
        service.register(good_id, raw_history())
        assert service.sensor_ids == [good_id]

    def test_rejected_id_allocates_nothing(self):
        service = make_service()
        with pytest.raises(ValueError):
            service.register("bad/id", raw_history())
        assert service.backends[0].allocated_bytes == 0


class TestServing:
    def test_forecast_on_raw_scale(self):
        service = make_service()
        history = raw_history()
        service.register("s1", history)
        forecast = service.forecast("s1")
        # Raw scale: near the sensor's operating range, not z-scores.
        assert 100.0 < forecast.mean < 300.0
        assert forecast.std > 0
        assert forecast.interval_low < forecast.mean < forecast.interval_high

    def test_ingest_then_forecast_tracks(self):
        service = make_service()
        full = raw_history(n=660, seed=2)
        service.register("s1", full[:600])
        errors = []
        for value in full[600:640]:
            forecast = service.forecast("s1")
            errors.append(abs(forecast.mean - value))
            service.ingest("s1", value)
        assert float(np.mean(errors)) < 15.0  # scale=50 sine

    def test_multi_horizon(self):
        service = make_service()
        service.register("s1", raw_history())
        f3 = service.forecast("s1", horizon=3)
        assert f3.horizon == 3
        with pytest.raises(KeyError):
            service.forecast("s1", horizon=9)

    def test_non_positive_horizon_rejected(self):
        """Regression: ``horizon or default`` silently remapped 0 to the
        default horizon instead of rejecting it."""
        service = make_service()
        service.register("s1", raw_history())
        with pytest.raises(ValueError, match="horizon must be positive"):
            service.forecast("s1", horizon=0)
        with pytest.raises(ValueError, match="horizon must be positive"):
            service.forecast("s1", horizon=-3)

    def test_default_horizon_is_smallest_configured(self):
        service = make_service()
        service.register("s1", raw_history())
        assert service.forecast("s1").horizon == min(CONFIG.horizons)
        assert service.forecast("s1", horizon=None).horizon == min(
            CONFIG.horizons
        )

    def test_forecast_all(self):
        service = make_service()
        service.register("a", raw_history())
        service.register("b", raw_history(seed=3))
        forecasts = service.forecast_all()
        assert set(forecasts) == {"a", "b"}

    def test_interval_level(self):
        service = make_service()
        service.register("s1", raw_history())
        wide = service.forecast("s1", level=0.99)
        narrow = service.forecast("s1", level=0.5)
        assert (wide.interval_high - wide.interval_low) > (
            narrow.interval_high - narrow.interval_low
        )
        with pytest.raises(ValueError):
            service.forecast("s1", level=1.0)

    def test_non_finite_ingest_rejected(self):
        service = make_service()
        service.register("s1", raw_history())
        with pytest.raises(ValueError):
            service.ingest("s1", np.nan)

    def test_unknown_sensor(self):
        with pytest.raises(KeyError):
            make_service().forecast("ghost")

    def test_forecast_as_dict(self):
        forecast = Forecast("s", 1, 1.0, 0.5, 0.0, 2.0, 0.95)
        record = forecast.as_dict()
        assert record["sensor_id"] == "s"
        assert record["interval"] == [0.0, 2.0]


class TestSnapshotRestore:
    def test_roundtrip(self, tmp_path):
        service = make_service()
        full = raw_history(n=620, seed=4)
        service.register("s1", full[:600])
        for value in full[600:610]:
            service.forecast("s1")
            service.ingest("s1", value)
        before = service.forecast("s1")
        service.snapshot(tmp_path)

        restored = make_service()
        restored.restore(tmp_path)
        assert restored.sensor_ids == ["s1"]
        after = restored.forecast("s1")
        assert after.mean == pytest.approx(before.mean, rel=1e-4)
        assert after.std == pytest.approx(before.std, rel=1e-3)

    def test_restore_requires_empty_service(self, tmp_path):
        service = make_service()
        service.register("s1", raw_history())
        service.snapshot(tmp_path)
        with pytest.raises(RuntimeError):
            service.restore(tmp_path)

    def test_restore_missing_snapshot(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            make_service().restore(tmp_path / "nope")

    def test_restore_orphan_archive_names_the_file(self, tmp_path):
        """An archive with no matching normalisation stats is corruption,
        reported by filename — not a raw KeyError from deep in numpy."""
        service = make_service()
        service.register("s1", raw_history())
        service.snapshot(tmp_path)
        # Drop an orphan sensor archive (from "another snapshot") in.
        other = make_service()
        other.register("ghost", raw_history(seed=9))
        other.snapshot(tmp_path / "other")
        (tmp_path / "other" / "ghost.npz").rename(tmp_path / "ghost.npz")

        with pytest.raises(SnapshotCorruptionError, match="ghost.npz"):
            make_service().restore(tmp_path)

    def test_restore_rejects_invalid_declared_id(self, tmp_path):
        service = make_service()
        service.register("s1", raw_history())
        service.snapshot(tmp_path)
        # Hand-edit the archive metadata to declare a hostile sensor id.
        import json

        with np.load(tmp_path / "s1.npz") as archive:
            data = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(data["meta_json"].tobytes()).decode("utf-8"))
        meta["sensor_id"] = "../evil"
        data["meta_json"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez(tmp_path / "s1.npz", **data)
        with pytest.raises(SnapshotCorruptionError, match="s1.npz"):
            make_service().restore(tmp_path)

    def test_restore_missing_norm_entry_names_the_file(self, tmp_path):
        """A ``_norms.npz`` missing one of a sensor's two stats (mean
        present, std gone — a partially hand-edited archive) is
        corruption, not a KeyError at forecast time."""
        service = make_service()
        service.register("s1", raw_history())
        service.snapshot(tmp_path)
        with np.load(tmp_path / "_norms.npz") as archive:
            norms = {name: archive[name] for name in archive.files}
        del norms["s1_std"]
        np.savez(tmp_path / "_norms.npz", **norms)
        with pytest.raises(SnapshotCorruptionError, match="s1.npz"):
            make_service().restore(tmp_path)

    def test_restore_rejects_hand_edited_series_shape(self, tmp_path):
        service = make_service()
        service.register("s1", raw_history())
        service.snapshot(tmp_path)
        with np.load(tmp_path / "s1.npz") as archive:
            data = {name: archive[name] for name in archive.files}
        data["series"] = data["series"].reshape(2, -1)
        np.savez(tmp_path / "s1.npz", **data)
        with pytest.raises(SnapshotCorruptionError, match="s1.npz"):
            make_service().restore(tmp_path)

    def test_restore_unparseable_archive_names_the_file(self, tmp_path):
        """Any npz that is not a sensor snapshot (here: missing keys) is
        reported as corruption with the offending filename."""
        service = make_service()
        service.register("s1", raw_history())
        service.snapshot(tmp_path)
        np.savez(tmp_path / "junk.npz", noise=np.arange(4))
        with pytest.raises(SnapshotCorruptionError, match="junk.npz"):
            make_service().restore(tmp_path)


class TestIngestMany:
    def test_batch_advances_every_sensor(self):
        service = make_service()
        service.register("a", raw_history())
        service.register("b", raw_history(seed=3))
        before = {sid: service.sensor(sid).now for sid in ("a", "b")}
        service.ingest_many({"a": 201.0, "b": 199.5})
        for sid in ("a", "b"):
            assert service.sensor(sid).now == before[sid] + 1

    def test_bad_batch_applies_nothing(self):
        """Validation covers the whole batch before any sensor advances:
        one bad reading must not leave the fleet half-ticked."""
        service = make_service()
        service.register("a", raw_history())
        service.register("b", raw_history(seed=3))
        before = {sid: service.sensor(sid).now for sid in ("a", "b")}
        with pytest.raises(ValueError):
            service.ingest_many({"a": 201.0, "b": np.nan})
        with pytest.raises(KeyError):
            service.ingest_many({"a": 201.0, "ghost": 1.0})
        for sid in ("a", "b"):
            assert service.sensor(sid).now == before[sid]


class TestMultiBackend:
    def make_sharded(self, n_backends=2, n_sensors=4):
        service = PredictionService(
            CONFIG,
            backends=[SimulatedGpuBackend() for _ in range(n_backends)],
            min_history=100,
        )
        for i in range(n_sensors):
            service.register(f"s{i}", raw_history(seed=i))
        return service

    def test_greedy_placement_balances(self):
        service = self.make_sharded(n_backends=2, n_sensors=4)
        assert service.sensors_per_backend() == [2, 2]
        # Equal-size sensors on equal devices alternate greedily.
        assert [service.placement_of(f"s{i}") for i in range(4)] == [0, 1, 0, 1]

    def test_forecast_all_covers_the_fleet(self):
        service = self.make_sharded()
        forecasts = service.forecast_all()
        assert list(forecasts) == sorted(service.sensor_ids)
        assert all(f.std > 0 for f in forecasts.values())

    def test_status_reports_per_backend(self):
        service = self.make_sharded()
        status = service.status()
        assert len(status["backends"]) == 2
        assert [b["n_sensors"] for b in status["backends"]] == [2, 2]
        assert all(b["allocated_bytes"] > 0 for b in status["backends"])
        assert sum(
            b["allocated_bytes"] for b in status["backends"]
        ) == status["device_memory_bytes"]

    def test_deregister_frees_on_the_hosting_backend(self):
        service = self.make_sharded(n_backends=2, n_sensors=2)
        host = service.placement_of("s0")
        before = service.backends[host].allocated_bytes
        service.deregister("s0")
        assert service.backends[host].allocated_bytes < before
        assert service.sensors_per_backend()[host] == 0

    def test_mixed_backend_kinds_shard_together(self):
        service = PredictionService(
            CONFIG,
            backends=[SimulatedGpuBackend(), NativeBackend()],
            min_history=100,
        )
        service.register("s0", raw_history())
        service.register("s1", raw_history(seed=1))
        # The native backend is unbounded, so it always has the most
        # free bytes: everything lands there after the pool warms up.
        names = {b["name"] for b in service.status()["backends"]}
        assert names == {"simulated", "native"}
        assert sum(service.sensors_per_backend()) == 2


class TestStatus:
    def test_status_fields(self):
        service = make_service()
        service.register("s1", raw_history())
        service.forecast("s1")
        status = service.status()
        assert status["n_sensors"] == 1
        assert status["device_memory_bytes"] > 0
        assert "s1" in status["sensors"]
