"""Tests for multi-GPU sharding, history truncation and persistence."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.backend import SimulatedGpuBackend
from repro.core import (
    SMiLer,
    SMiLerConfig,
    build_smiler,
    load_snapshot,
    plan_lanes,
    save_smiler,
)
from repro.gpu import DeviceSpec, GpuMemoryError
from repro.service import PredictionService


def restore_smiler(path):
    """Parse an archive and rebuild its sensor — what ``restore()`` does
    per sensor once admission picked a backend."""
    return build_smiler(load_snapshot(path))


def periodic_history(n=700, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(np.arange(n) / 9.0) + 0.05 * rng.normal(size=n)


SMALL = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1,),
    predictor="ar",
)
SMALL_GP = SMiLerConfig(
    elv=(8, 16), ekv=(4,), rho=2, omega=4, horizons=(1,),
    predictor="gp", initial_train_iters=8, online_train_iters=2,
)


class TestTruncateHistory:
    """Section 6.4.1 option 2 — SMiLer accepts a shorter history."""

    def test_truncated_history_costs_less_memory(self):
        history = periodic_history()
        full = SMiLer(history, SMALL)
        short = SMiLer(history[-history.size // 2:], SMALL)
        assert short.memory_bytes() < full.memory_bytes()


def sharded_service(n_backends, spec=None):
    backends = [SimulatedGpuBackend(spec=spec) for _ in range(n_backends)]
    return PredictionService(SMALL, backends=backends, min_history=256)


class TestMultiBackendSharding:
    """Section 6.4.1 option 1 — sensors shard across a backend pool
    (served by ``PredictionService``; the ``MultiGpuFleet`` facade is
    gone)."""

    def test_shards_across_backends(self):
        service = sharded_service(2)
        for seed in range(4):
            service.register(f"s{seed}", periodic_history(seed=seed))
        counts = service.sensors_per_backend()
        assert sum(counts) == 4
        assert all(c >= 1 for c in counts)  # greedy balancing spreads them

    def test_predict_observe_roundtrip(self):
        service = sharded_service(2)
        for seed in range(3):
            service.register(f"s{seed}", periodic_history(seed=seed))
        batch = service.forecast_all()
        assert len(batch) == 3 and not batch.errors
        service.ingest_many({"s0": 0.1, "s1": 0.2, "s2": 0.3})
        assert service.status()["device_sim_seconds"] > 0

    def test_pool_exhaustion_raises(self):
        tiny = DeviceSpec(memory_bytes=60_000)
        service = sharded_service(2, spec=tiny)
        with pytest.raises(GpuMemoryError):
            for seed in range(20):
                service.register(f"s{seed}", periodic_history(seed=seed))

    def test_two_backends_host_more_than_one(self):
        """The point of the pool: capacity scales with backend count."""
        spec = DeviceSpec(memory_bytes=100_000)

        def max_hosted(n_backends):
            service = sharded_service(n_backends, spec=spec)
            hosted = 0
            for seed in range(6):
                try:
                    service.register(f"s{seed}", periodic_history(seed=seed))
                except GpuMemoryError:
                    break
                hosted += 1
            return hosted

        assert max_hosted(2) > max_hosted(1)


class TestPlanLanes:
    def test_groups_by_backend_sorted(self):
        placements = {"a": 2, "b": 0, "c": 2, "d": 0}
        plans = plan_lanes(placements, ["a", "b", "c", "d"])
        assert [p.backend_index for p in plans] == [0, 2]
        assert [p.lane_index for p in plans] == [0, 1]
        assert plans[0].sensor_ids == ("b", "d")
        assert plans[1].sensor_ids == ("a", "c")

    def test_preserves_given_order_within_lane(self):
        placements = {"a": 0, "b": 0, "c": 0}
        plans = plan_lanes(placements, ["c", "a", "b"])
        assert plans[0].sensor_ids == ("c", "a", "b")

    def test_only_hosting_backends_get_lanes(self):
        plans = plan_lanes({"x": 3}, ["x"])
        assert len(plans) == 1
        assert plans[0].backend_index == 3
        assert plans[0].lane_index == 0

    def test_empty_batch_plans_nothing(self):
        assert plan_lanes({}, []) == []


class TestPersistence:
    def _trained_smiler(self, config, steps=10):
        history = periodic_history()
        smiler = SMiLer(history[:650], config)
        for t in range(650, 650 + steps):
            smiler.predict()
            smiler.observe(history[t])
        return smiler, history

    def test_roundtrip_preserves_series_and_weights(self, tmp_path):
        smiler, _ = self._trained_smiler(SMALL)
        path = tmp_path / "sensor.npz"
        save_smiler(smiler, path)
        restored = restore_smiler(path)
        np.testing.assert_allclose(restored.series, smiler.series)
        assert restored.sensor_id == smiler.sensor_id
        assert restored.config == smiler.config
        original = smiler.ensemble(1).weights()
        loaded = restored.ensemble(1).weights()
        assert set(original) == set(loaded)
        for cell in original:
            assert loaded[cell] == pytest.approx(original[cell])

    def test_roundtrip_preserves_gp_hyperparameters(self, tmp_path):
        smiler, _ = self._trained_smiler(SMALL_GP, steps=5)
        path = tmp_path / "gp.npz"
        save_smiler(smiler, path)
        restored = restore_smiler(path)
        for cell in smiler.ensemble(1).cells:
            original = smiler.ensemble(1).state(cell).predictor.kernel
            loaded = restored.ensemble(1).state(cell).predictor.kernel
            if original is None:
                assert loaded is None
                continue
            assert loaded.theta0 == pytest.approx(original.theta0)
            assert loaded.theta1 == pytest.approx(original.theta1)
            assert loaded.theta2 == pytest.approx(original.theta2)

    def test_restored_instance_predicts_close_to_original(self, tmp_path):
        smiler, history = self._trained_smiler(SMALL)
        path = tmp_path / "s.npz"
        save_smiler(smiler, path)
        restored = restore_smiler(path)
        a = smiler.predict()[1]
        b = restored.predict()[1]
        assert b.mean == pytest.approx(a.mean, abs=1e-6)
        assert b.variance == pytest.approx(a.variance, rel=1e-4)

    def test_sleep_state_survives(self, tmp_path):
        smiler, _ = self._trained_smiler(SMALL, steps=20)
        ensemble = smiler.ensemble(1)
        cell = ensemble.cells[0]
        ensemble.state(cell).asleep = True
        ensemble.state(cell).sleep_span = 4
        ensemble.state(cell).sleep_remaining = 2
        path = tmp_path / "sleep.npz"
        save_smiler(smiler, path)
        restored_state = restore_smiler(path).ensemble(1).state(cell)
        assert restored_state.asleep
        assert restored_state.sleep_span == 4
        assert restored_state.sleep_remaining == 2

    def test_a_restore_carries_ensemble_and_gp_state_but_no_pending(
        self, tmp_path
    ):
        """What a save -> load -> build round trip carries, bit for bit:
        every cell's weight and sleep state, every GP cell's
        hyperparameters and remembered step.  What it does not: the
        predictions awaiting their true value — the restored sensor has
        none pending, so the next reading tunes the original's ensemble
        and not the restored one's."""
        smiler, history = self._trained_smiler(SMALL_GP, steps=6)
        ensemble = smiler.ensemble(1)
        sleeper = ensemble.state(ensemble.cells[-1])
        sleeper.asleep, sleeper.sleep_span, sleeper.sleep_remaining = True, 4, 2
        smiler.predict()
        assert len(smiler.pending(1)) == 1
        save_smiler(smiler, tmp_path / "sensor.npz")
        restored = restore_smiler(tmp_path / "sensor.npz")
        fields = ("weight", "asleep", "sleep_span", "sleep_remaining", "just_recovered")
        for cell in ensemble.cells:
            before, after = ensemble.state(cell), restored.ensemble(1).state(cell)
            assert [getattr(after, f) for f in fields] == [
                getattr(before, f) for f in fields
            ], cell
            assert before.predictor._log_params is not None, cell
            assert after.predictor._log_params.tobytes() == (
                before.predictor._log_params.tobytes()
            ), cell
            assert after.predictor._step == before.predictor._step, cell
        assert restored.ensemble(1).state(ensemble.cells[-1]).asleep
        assert restored.pending(1) == []
        updates = ensemble.updates, restored.ensemble(1).updates
        value = float(history[650 + 6])
        smiler.observe(value)
        restored.observe(value)
        assert ensemble.updates == updates[0] + 1
        assert restored.ensemble(1).updates == updates[1]

    def test_search_switches_survive_both_roundtrips(self, tmp_path):
        """Every config field is archived, the search switches included:
        a sensor restored from a snapshot runs what it ran before."""
        config = dataclasses.replace(
            SMALL, lb_kim=False, reuse_threshold=False
        )
        smiler, history = self._trained_smiler(config, steps=2)
        save_smiler(smiler, tmp_path / "sensor.npz")
        assert restore_smiler(tmp_path / "sensor.npz").config == config

        service = PredictionService(config, min_history=256)
        service.register("s0", history)
        service.snapshot(tmp_path / "fleet")
        restored = PredictionService(config, min_history=256)
        restored.restore(tmp_path / "fleet")
        assert restored.sensor("s0").config == config

    def test_version_check(self, tmp_path):
        import json

        smiler, _ = self._trained_smiler(SMALL, steps=2)
        path = tmp_path / "v.npz"
        save_smiler(smiler, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(arrays["meta_json"].tobytes()).decode("utf-8"))
        meta["format_version"] = 999
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError):
            restore_smiler(path)


class TestServiceWithGpConfig:
    def test_gp_service_snapshot_roundtrip(self, tmp_path):
        """GP hyperparameters survive the service-level snapshot too."""
        from repro.service import PredictionService

        rng = np.random.default_rng(5)
        history = 100.0 + 10.0 * (
            np.sin(np.arange(700) / 9.0) + 0.05 * rng.normal(size=700)
        )
        service = PredictionService(SMALL_GP, min_history=100)
        service.register("gp-sensor", history)
        for value in history[-5:]:
            service.forecast("gp-sensor")
            service.ingest("gp-sensor", float(value))
        before = service.forecast("gp-sensor")
        service.snapshot(tmp_path)
        restored = PredictionService(SMALL_GP, min_history=100)
        restored.restore(tmp_path)
        after = restored.forecast("gp-sensor")
        assert after.mean == pytest.approx(before.mean, rel=1e-3)


# Paper-default 3 x 3 GP ensemble, sleep scheduler on.
PAPER_GP = SMiLerConfig(predictor="gp")
HISTORY, STEPS, SPLIT = 700, 40, 20


def gp_cells(smiler):
    ensemble = smiler.ensemble(1)
    return [ensemble.state(cell).predictor for cell in ensemble.cells]


def final_state(digest, smiler):
    """Fold every cell's trained hyperparameters and remembered line-search
    step into ``digest``; return it."""
    for predictor in gp_cells(smiler):
        digest.update(np.asarray(predictor._log_params, np.float64).tobytes())
        digest.update(float(predictor._step).hex().encode())
    return digest.hexdigest()


class TestGpStepSurvivesASnapshot:
    """Each GP cell's line search starts where its last one left off, so
    snapshot -> restore -> continue must equal never stopping, bit for
    bit: forecasts, hyperparameters and the remembered steps."""

    values = periodic_history(HISTORY + STEPS, seed=0)

    @staticmethod
    def forget(smiler):
        """What a restore that dropped the step would leave."""
        for predictor in gp_cells(smiler):
            predictor._step = 1.0

    def smiler_run(self, tmp_path=None, forget_step=False):
        smiler = SMiLer(self.values[:HISTORY], PAPER_GP)
        digest = hashlib.sha256()
        for t, value in enumerate(self.values[HISTORY:]):
            if t == SPLIT and tmp_path is not None:
                steps = [p._step for p in gp_cells(smiler)]
                assert min(steps) < 0.5  # something worth remembering
                save_smiler(smiler, tmp_path / "gp.npz")
                smiler = restore_smiler(tmp_path / "gp.npz")
                assert [p._step for p in gp_cells(smiler)] == steps
                if forget_step:
                    self.forget(smiler)
            output = smiler.predict()[1]
            digest.update((output.mean.hex() + output.variance.hex()).encode())
            smiler.observe(float(value))
        return final_state(digest, smiler)

    def service_run(self, tmp_path=None, forget_step=False):
        service = PredictionService(PAPER_GP, min_history=100)
        service.register("s0", self.values[:HISTORY])
        digest = hashlib.sha256()
        for t, value in enumerate(self.values[HISTORY:]):
            if t == SPLIT and tmp_path is not None:
                service.snapshot(tmp_path)
                service.close()
                service = PredictionService(PAPER_GP, min_history=100)
                service.restore(tmp_path)
                if forget_step:
                    self.forget(service.sensor("s0"))
            forecast = service.forecast("s0")
            digest.update((forecast.mean.hex() + forecast.std.hex()).encode())
            service.ingest("s0", float(value))
        try:
            return final_state(digest, service.sensor("s0"))
        finally:
            service.close()

    def test_save_load_continue_equals_never_stopping(self, tmp_path):
        never_stopped = self.smiler_run()
        assert self.smiler_run(tmp_path) == never_stopped
        # The pin has teeth: restarting every search at 1.0 differs.
        assert self.smiler_run(tmp_path, forget_step=True) != never_stopped

    def test_service_snapshot_restore_continue_equals_never_stopping(
        self, tmp_path
    ):
        never_stopped = self.service_run()
        assert self.service_run(tmp_path / "a") == never_stopped
        assert self.service_run(tmp_path / "b", forget_step=True) != never_stopped

    def test_format_1_archive_loads_with_step_one(self, tmp_path):
        """An archive written before the step was kept: no ``step_*``
        arrays, format 1 — it still loads, every step at 1.0."""
        import json

        smiler = SMiLer(self.values[:HISTORY], PAPER_GP)
        for value in self.values[HISTORY : HISTORY + 3]:
            smiler.predict()
            smiler.observe(float(value))
        path = tmp_path / "v1.npz"
        save_smiler(smiler, path)
        with np.load(path) as archive:
            arrays = {
                name: archive[name]
                for name in archive.files
                if not name.startswith("step_")
            }
        assert any(name.startswith("gp_") for name in arrays)
        meta = json.loads(bytes(arrays["meta_json"].tobytes()).decode("utf-8"))
        assert meta["format_version"] == 2
        meta["format_version"] = 1
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        restored = restore_smiler(path)
        for before, after in zip(gp_cells(smiler), gp_cells(restored)):
            assert np.array_equal(before._log_params, after._log_params)
            assert after._step == 1.0
