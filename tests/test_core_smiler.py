"""End-to-end tests for the SMiLer facade and the lane functions a fleet
is served through."""

import numpy as np
import pytest

from repro.backend import SimulatedGpuBackend
from repro.core import SMiLer, SMiLerConfig
from repro.core.smiler import absorb_many, predict_many, tune_many
from repro.index import search_many


def periodic_history(n=800, period=50, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.sin(2 * np.pi * t / period) + noise * rng.normal(size=n)


SMALL = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1,),
    predictor="ar", initial_train_iters=5, online_train_iters=2,
)
SMALL_GP = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1,),
    predictor="gp", initial_train_iters=8, online_train_iters=2,
)


class TestSingleSensor:
    def test_predict_then_observe_loop(self):
        history = periodic_history()
        smiler = SMiLer(history[:700], SMALL)
        errors = []
        for t in range(700, 760):
            out = smiler.predict()[1]
            errors.append(abs(out.mean - history[t]))
            assert out.variance > 0
            smiler.observe(history[t])
        assert float(np.mean(errors)) < 0.2

    def test_gp_predictor_also_tracks(self):
        history = periodic_history(seed=1)
        smiler = SMiLer(history[:700], SMALL_GP)
        errors = []
        for t in range(700, 730):
            out = smiler.predict()[1]
            errors.append(abs(out.mean - history[t]))
            smiler.observe(history[t])
        assert float(np.mean(errors)) < 0.25

    def test_multi_horizon_predictions(self):
        cfg = SMiLerConfig(
            elv=(8, 16), ekv=(4,), rho=2, omega=4, horizons=(1, 5),
            predictor="ar",
        )
        history = periodic_history(seed=2)
        smiler = SMiLer(history[:700], cfg)
        outs = smiler.predict()
        assert set(outs) == {1, 5}
        with pytest.raises(KeyError):
            smiler.predict(horizon=3)

    def test_now_advances_with_observe(self):
        history = periodic_history()
        smiler = SMiLer(history[:700], SMALL)
        assert smiler.now == 700
        smiler.predict()
        smiler.observe(history[700])
        assert smiler.now == 701
        np.testing.assert_allclose(smiler.series[-1], history[700])

    def test_repeated_predict_same_step_is_cached(self):
        history = periodic_history()
        smiler = SMiLer(history[:700], SMALL)
        out1 = smiler.predict()[1]
        search_time = smiler.backend.elapsed_s
        out2 = smiler.predict()[1]
        assert out1.mean == out2.mean
        # The second call reuses the cached kNN answers: no new kernels
        # beyond the (tiny) ensemble work.
        assert smiler.backend.elapsed_s == search_time

    def test_auto_tuning_updates_weights(self):
        history = periodic_history(seed=3)
        smiler = SMiLer(history[:700], SMALL)
        before = dict(smiler.ensemble(1).weights())
        for t in range(700, 715):
            smiler.predict()
            smiler.observe(history[t])
        after = smiler.ensemble(1).weights()
        assert smiler.ensemble(1).updates == 15
        assert before != after

    def test_observe_without_predict_is_safe(self):
        history = periodic_history()
        smiler = SMiLer(history[:700], SMALL)
        smiler.observe(history[700])  # no pending predictions: no crash
        assert smiler.now == 701

    def test_ablation_modes(self):
        history = periodic_history(seed=4)
        ne = SMiLer(
            history[:700],
            SMiLerConfig(
                elv=(8, 16), ekv=(4, 8), rho=2, omega=4, predictor="ar",
                ensemble=False, single_k=4, single_d=16,
            ),
        )
        out = ne.predict()[1]
        assert np.isfinite(out.mean)
        assert len(ne.ensemble(1).cells) == 1

        ns = SMiLer(
            history[:700],
            SMiLerConfig(
                elv=(8, 16), ekv=(4, 8), rho=2, omega=4, predictor="ar",
                self_adaptive=False,
            ),
        )
        ns.predict()
        ns.observe(history[700])
        for w in ns.ensemble(1).weights().values():
            assert w == pytest.approx(1.0 / 4)


def observe_lane(sensors, values):
    """What ``PredictionService`` does per ingest lane: absorb every
    reading, then one group search whose answers every member adopts."""
    absorb_many(sensors, values)
    found = search_many([sensor.engine for sensor in sensors])
    for sensor, answers in zip(sensors, found):
        sensor.install(answers)


class TestFleet:
    """The lane functions a fleet is served through —
    :func:`predict_many`, :func:`absorb_many`, :func:`search_many` — on
    sensors sharing one backend, against the same sensors run alone."""

    def test_observe_all_equals_a_sensor_by_sensor_run(self):
        """One group search for the lane: answers, forecasts and ``now``
        are what observing sensor by sensor gives."""
        histories = [periodic_history(seed=s)[: 600 + 30 * s] for s in range(3)]
        futures = [periodic_history(seed=s)[700:706] for s in range(3)]
        backend = SimulatedGpuBackend()
        lane = [SMiLer(h, SMALL, backend=backend) for h in histories]
        apart = [
            SMiLer(h, SMALL, backend=SimulatedGpuBackend()) for h in histories
        ]
        for step in range(6):
            outs = predict_many(lane)
            for sensor, alone, out in zip(lane, apart, outs):
                expected = alone.predict()[1]
                assert (out[1].mean, out[1].variance) == (
                    expected.mean, expected.variance
                )
                assert sensor.now == alone.now
            observe_lane(lane, [f[step] for f in futures])
            for sensor, alone, future in zip(lane, apart, futures):
                alone.observe(future[step])
                assert sensor.now == alone.now
                for d, answer in alone._answers.items():
                    np.testing.assert_array_equal(
                        sensor._answers[d].starts, answer.starts
                    )
                    np.testing.assert_array_equal(
                        sensor._answers[d].distances, answer.distances
                    )

    def test_failing_group_search_keeps_readings_and_invalidates_answers(self):
        from repro.faults import FaultInjectingBackend, FaultProfile, KernelFaultError

        backend = FaultInjectingBackend(SimulatedGpuBackend(), FaultProfile())
        lane = [
            SMiLer(periodic_history(seed=s)[:600], SMALL, backend=backend)
            for s in range(3)
        ]
        predict_many(lane)
        observe_lane(lane, [0.1, 0.2, 0.3])  # before the burst: all fresh
        assert all(s._answers is not None for s in lane)
        backend.profile = FaultProfile(kernel_error_rate=1.0)
        with pytest.raises(KernelFaultError):
            observe_lane(lane, [0.4, 0.5, 0.6])
        for sensor, value in zip(lane, (0.4, 0.5, 0.6)):
            assert sensor.now == 602
            assert sensor.series[-1] == value
            assert sensor._answers is None

    def test_absorb_is_the_auto_tune_then_one_stacked_index_step(self):
        backend = SimulatedGpuBackend()
        history = periodic_history()
        sensors = [
            SMiLer(history[: 600 + 7 * i], SMALL, backend=backend)
            for i in range(3)
        ]
        for sensor in sensors:
            sensor.predict()
        launches = backend.cost.launches
        tune_many(sensors[:1], [0.5])  # scores the waiting prediction only
        assert sensors[0].ensemble(1).updates == 1
        assert sensors[0].now == sensors[0].series.size == 600
        assert sensors[0]._answers is not None
        assert backend.cost.launches == launches
        absorb_many(sensors[1:], [0.25, 0.75])
        assert backend.cost.launches == launches + 1  # one window_index_step
        for sensor, value in zip(sensors[1:], (0.25, 0.75)):
            assert sensor.ensemble(1).updates == 1
            assert sensor.series[-1] == value and sensor.now == sensor.series.size
            assert sensor._answers is None
        with pytest.raises(ValueError):
            absorb_many(sensors, [1.0])


class TestDiagnostics:
    def test_snapshot_fields(self):
        history = periodic_history()
        # device_sim_seconds is a simulated-backend concept: pin it so the
        # assertion holds under any REPRO_BACKEND default.
        smiler = SMiLer(history[:700], SMALL, backend=SimulatedGpuBackend())
        for t in range(700, 706):
            smiler.predict()
            smiler.observe(history[t])
        diag = smiler.diagnostics()
        assert diag["sensor_id"] == "sensor-0"
        assert diag["now"] == 706
        assert diag["series_length"] == 706
        assert diag["memory_bytes"] > 0
        assert diag["device_sim_seconds"] > 0
        assert diag["index_reuse"]["rows_reused"] > 0
        per_h = diag["horizons"][1]
        assert per_h["updates"] == 6
        assert abs(sum(per_h["weights"].values()) - 1.0) < 1e-9

    def test_asleep_cells_listed(self):
        history = periodic_history(seed=9)
        smiler = SMiLer(history[:700], SMALL)
        ensemble = smiler.ensemble(1)
        cell = ensemble.cells[0]
        ensemble.state(cell).asleep = True
        assert cell in smiler.diagnostics()["horizons"][1]["asleep"]
