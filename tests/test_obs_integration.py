"""Integration tests: one forecast() produces the documented span tree,
per-kernel counters, reuse counters and forecast counts — a fleet adds
no series — and costs nothing when the switch is off."""

import time

import numpy as np
import pytest

from repro import PredictionService, SMiLerConfig, obs
from repro.service import ServiceConfig
from repro.backend import BACKEND_NAMES, SimulatedGpuBackend, make_backend


@pytest.fixture(autouse=True)
def _clean_global_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def tiny_config(predictor: str = "gp") -> SMiLerConfig:
    return SMiLerConfig(
        elv=(16, 32), ekv=(4, 8), omega=16, horizons=(1, 3),
        predictor=predictor, initial_train_iters=2, online_train_iters=1,
    )


def make_service(predictor: str = "gp", backend=None) -> PredictionService:
    # These tests assert simulated-time spans and kernel counters, so pin
    # the simulated backend regardless of the REPRO_BACKEND default.
    service = PredictionService(
        config=tiny_config(predictor),
        backends=backend or SimulatedGpuBackend(),
        min_history=300,
    )
    rng = np.random.default_rng(7)
    history = np.sin(np.arange(400) * 0.1) + 0.05 * rng.standard_normal(400)
    service.register("s0", history)
    return service


class TestSpanTree:
    def test_forecast_produces_expected_span_levels(self):
        obs.enable()
        service = make_service()
        service.forecast("s0")
        root = service.trace_last_request()

        assert root is not None and root.name == "forecast"
        predict = root.find("predict")
        assert predict is not None
        # The stale re-search is the group's, retried by the service
        # before the stacked predict: a sibling of ``predict``.
        assert [child.name for child in root.children] == ["search", "predict"]
        search = root.find("search")
        assert search.find("lower_bounds") is not None
        assert search.find("dtw_refine") is not None
        assert predict.find("gp_fit") is not None
        # The layers under them, each nested where the layer table says.
        [lane_pass] = [c for c in search.children if c.name == "_search_lane"]
        assert [c.name for c in lane_pass.children] == ["dtw_refine", "k_select"]
        assert [c.name for c in lane_pass.children[0].children] == [
            "dtw_verification", "dtw_verification"
        ]
        [mix] = predict.find_all("mix")
        assert predict.find("ensemble_mix").children[-1] is mix
        for fit in predict.find_all("gp_fit"):
            [train] = fit.children
            assert train.name == "gp_train" and train.children
            assert {c.name for c in train.children} <= {
                "loo_values", "loo_gradients"
            }

        def walk(span):
            yield span
            for child in span.children:
                yield from walk(child)

        for span in walk(root):
            assert span.wall_s >= 0.0, span.name
            assert span.gpu_sim_s >= 0.0, span.name

    def test_root_attrs_identify_the_request(self):
        obs.enable()
        service = make_service()
        service.forecast("s0", horizon=3)
        root = service.trace_last_request()
        assert root.attrs["sensor_id"] == "s0"
        assert root.attrs["horizon"] == 3

    def test_gpu_time_attributed_to_search(self):
        obs.enable()
        service = make_service()
        service.forecast("s0")
        search = service.trace_last_request().find("search")
        assert search.gpu_sim_s > 0.0

    def test_no_trace_when_disabled(self):
        service = make_service()
        service.forecast("s0")
        assert service.trace_last_request() is None


class TestMetricsExport:
    def test_per_kernel_launch_counters(self):
        obs.enable()
        service = make_service()
        service.forecast("s0")
        text = obs.to_prometheus(obs.get_registry())
        assert 'smiler_gpu_kernel_launches_total{kernel="dtw_verify"}' in text
        assert 'smiler_gpu_kernel_launches_total{kernel="k_select"}' in text
        assert "# TYPE smiler_gpu_kernel_sim_seconds histogram" in text

    def test_window_reuse_counters_match_index_fields(self):
        obs.enable()
        service = make_service(predictor="ar")
        for value in np.sin(np.arange(5) * 0.3):
            service.ingest("s0", float(value))
        service.forecast("s0")

        wi = service._sensors["s0"].engine.window_index
        counter = obs.get_registry().get("smiler_window_index_rows_total")
        assert counter.value(outcome="built_full") == wi.rows_built_full
        assert counter.value(outcome="recomputed_lbeq") == wi.rows_recomputed_lbeq
        assert counter.value(outcome="reused") == wi.rows_reused

    def test_a_lane_reports_once_with_its_sensors_summed(self, monkeypatch):
        """One ``observe_window_reuse`` per stacked step and one
        ``observe_search`` per item length per lane; the totals are the
        per-sensor ones, the query counter rises by the lane's size."""
        from repro.index import window_index
        from repro.obs import hooks

        calls = {"reuse": 0, "search": 0}

        def counting(name, hook):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return hook(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            window_index, "observe_window_reuse",
            counting("reuse", window_index.observe_window_reuse),
        )
        monkeypatch.setattr(
            hooks, "observe_search", counting("search", hooks.observe_search)
        )
        # Inline, so the counted calls happen in this process.
        service = PredictionService(
            config=tiny_config("ar"), backends=SimulatedGpuBackend(),
            min_history=300, service_config=ServiceConfig(engine="inline"),
        )
        rng = np.random.default_rng(8)
        for i in range(3):
            service.register(
                f"s{i}", np.cos(np.arange(380 + 9 * i) * 0.1) + 0.05
                * rng.standard_normal(380 + 9 * i),
            )
        obs.enable()
        calls.update(reuse=0, search=0)  # builds reported at registration
        service.ingest_many({"s0": 0.1, "s1": 0.2, "s2": 0.3})
        assert calls == {"reuse": 1, "search": 2}

        registry = obs.get_registry()
        indexes = [
            service._sensors[sid].engine.window_index for sid in service.sensor_ids
        ]
        rows = registry.get("smiler_window_index_rows_total")
        assert rows.value(outcome="built_full") == 3
        # A window's LB_EQ is recomputed iff its envelope changed: at
        # most rho of them per sensor, counted as each index counts them.
        assert rows.value(outcome="recomputed_lbeq") == sum(
            index.rows_recomputed_lbeq for index in indexes
        ) <= 3 * indexes[0].rho
        assert rows.value(outcome="reused") == sum(
            index.rows_reused for index in indexes
        )
        assert registry.get(
            "smiler_window_index_lbec_columns_recomputed_total"
        ).value() == sum(index.columns_recomputed_lbec for index in indexes)
        for d in (16, 32):
            assert registry.get("smiler_search_queries_total").value(
                item_length=d
            ) == 3
            assert registry.get("smiler_search_candidates_total").value(
                item_length=d
            ) == sum(
                service._sensors[sid]._answers[d].candidates_total
                for sid in service.sensor_ids
            )

    def test_pruning_counters_track_search_accounting(self):
        obs.enable()
        service = make_service(predictor="ar")
        service.forecast("s0")
        registry = obs.get_registry()
        for d in (16, 32):
            total = registry.get("smiler_search_candidates_total").value(
                item_length=d
            )
            pruned = registry.get(
                "smiler_search_candidates_pruned_total"
            ).value(item_length=d)
            verified = registry.get(
                "smiler_search_candidates_verified_total"
            ).value(item_length=d)
            assert total > 0
            # pruned counts cascade kills, so total - pruned is the
            # unfiltered survivor count; verified can exceed it because
            # threshold seeds are verified even when their bound is
            # above tau (the fixed, seed-aware accounting).
            unfiltered = total - pruned
            assert unfiltered >= 0
            assert verified >= unfiltered

    def test_forecasts_counted_per_horizon_and_rung(self):
        obs.enable()
        service = make_service(predictor="ar")
        served = {service.forecast("s0", horizon=h).source for h in (1, 3, 1)}
        (source,) = served
        counter = obs.get_registry().get("smiler_forecasts_total")
        assert counter.series_keys() == [("1", source), ("3", source)]
        assert counter.value(horizon=1, source=source) == 2
        assert counter.value(horizon=3, source=source) == 1

    def test_memory_gauge_follows_register_deregister(self):
        # Both backends own the same ledger, so both must move the gauge.
        for name in BACKEND_NAMES:
            obs.reset()
            obs.enable()
            service = make_service(predictor="ar", backend=make_backend(name))
            backend = service.backends[0]
            gauge = obs.get_registry().get("smiler_gpu_memory_allocated_bytes")
            assert gauge is not None, name
            assert gauge.value(backend_id=backend.backend_id) \
                == backend.allocated_bytes > 0, name
            service.deregister("s0")
            assert gauge.value(backend_id=backend.backend_id) == 0, name

    @pytest.mark.parametrize("engine", ["inline", "process"])
    def test_memory_gauge_has_a_series_per_backend(self, engine):
        obs.enable()
        service = PredictionService(
            config=tiny_config("ar"),
            backends=[SimulatedGpuBackend(), SimulatedGpuBackend()],
            min_history=300,
            service_config=ServiceConfig(engine=engine),
        )
        rng = np.random.default_rng(5)
        try:
            for i in range(3):  # two sensors on one backend, one on the other
                service.register(f"s{i}", rng.standard_normal(400))
            assert not service.forecast_all().errors
            service.status()  # the process engine's workers flush back
            gauge = obs.get_registry().get("smiler_gpu_memory_allocated_bytes")
            held = {b.backend_id: b.allocated_bytes for b in service.backends}
            assert len(set(held.values())) == 2 and min(held.values()) > 0
            assert {
                backend_id: gauge.value(backend_id=backend_id)
                for (backend_id,) in gauge.series_keys()
            } == held
            for sensor_id in service.sensor_ids:
                service.deregister(sensor_id)
            assert all(gauge.value(backend_id=b) == 0 for b in held)
        finally:
            service.close()

    def test_service_metrics_snapshot(self):
        obs.enable()
        service = make_service(predictor="ar")
        service.forecast("s0")
        snapshot = service.metrics()
        assert "smiler_forecasts_total" in snapshot
        assert "smiler_gpu_kernel_launches_total" in snapshot

    def test_nothing_recorded_when_disabled(self):
        service = make_service(predictor="ar")
        service.forecast("s0")
        assert len(obs.get_registry()) == 0


class TestFleetScale:
    """Forecast telemetry is lane-granular: no series per sensor, so a
    fleet of any size fits the registry's cardinality cap."""

    @staticmethod
    def fleet(n_sensors: int, engine: str = "inline") -> PredictionService:
        service = PredictionService(
            config=tiny_config("ar"),
            backends=[make_backend("native"), make_backend("native")],
            min_history=300,
            service_config=ServiceConfig(engine=engine),
        )
        rng = np.random.default_rng(11)
        for i in range(n_sensors):
            history = np.sin(np.arange(300) * 0.1 + i)
            service.register(
                f"s{i:04d}", history + 0.05 * rng.standard_normal(300)
            )
        return service

    def test_a_thousand_sensor_fleet_is_served(self):
        obs.enable()
        batch = self.fleet(1001).forecast_all()
        assert len(batch) == 1001 and not batch.errors

    @pytest.mark.parametrize("engine", ["inline", "process"])
    def test_series_count_does_not_grow_with_the_fleet(self, engine):
        counts = []
        for n_sensors in (8, 32):
            obs.reset()
            obs.enable()
            service = self.fleet(n_sensors, engine)
            try:
                assert not service.forecast_all().errors
            finally:
                service.close()  # the process engine's workers flush back
            counts.append(sum(
                len(metric.series_keys())
                for metric in obs.get_registry().metrics()
            ))
        assert counts[0] == counts[1] > 0

    def test_no_catalog_row_is_labelled_by_sensor(self):
        assert all(
            "sensor_id" not in spec.labels for spec in obs.CATALOG.values()
        )


class TestGpLaneTelemetry:
    def test_training_metrics_equal_the_predictors_counters(self):
        """Over several rounds of a three-sensor GP lane, the training
        counters obs exports are the predictors' own, summed: one
        ``observe_gp_training`` per stack the lane trained, its members'
        sums split by whether they converged.  Each stack is one
        ``gp_fit`` span saying its ``k`` and how many members it held."""
        service = PredictionService(
            config=tiny_config("gp"), backends=SimulatedGpuBackend(),
            min_history=300, service_config=ServiceConfig(engine="inline"),
        )
        rng = np.random.default_rng(9)
        for i in range(3):
            service.register(
                f"s{i}", np.sin(np.arange(400) * (0.1 + 0.01 * i))
                + 0.05 * rng.standard_normal(400),
            )
        obs.enable()
        for tick in range(4):
            batch = service.forecast_all()
            assert not batch.errors
            service.ingest_many({
                sid: float(np.sin(0.3 * tick + i))
                for i, sid in enumerate(service.sensor_ids)
            })
        predictors = [
            service._sensors[sid].ensemble(h).state(cell).predictor
            for sid in service.sensor_ids
            for h in (1, 3) for cell in tiny_config().grid
        ]
        registry = obs.get_registry()
        trainings = registry.get("smiler_gp_train_calls_total")
        evaluations = registry.get("smiler_gp_objective_evaluations_total")
        assert trainings.value(converged=True) + trainings.value(
            converged=False
        ) == sum(p.train_calls for p in predictors) > 0
        assert evaluations.value(kind="value") == sum(
            p.objective_evaluations for p in predictors
        )
        assert evaluations.value(kind="gradient") == sum(
            p.gradient_evaluations for p in predictors
        )
        assert registry.get("smiler_gp_cg_iterations_total").value() == sum(
            p.cg_iterations for p in predictors
        )

        service.forecast_all()
        fits = [
            span for span in service.trace_last_request().find_all("gp_fit")
        ]
        assert {span.attrs["k"] for span in fits} <= {4, 8}
        # Two k stacks per horizon, each holding up to 3 sensors x 2 d.
        assert len(fits) <= 2 * 2
        assert max(span.attrs["members"] for span in fits) > 2


class TestDisabledOverhead:
    def test_disabled_no_slower_than_enabled(self):
        """Instrumentation off: the hot path pays only flag checks.

        The disabled path must not cost more than the enabled path (which
        does strictly more work: spans, counters, histograms).  The hard
        zero-allocation guarantees live in test_obs_tracing; this is the
        tiny-preset timing comparison.
        """
        service = make_service(predictor="ar")
        service.forecast("s0")  # warm-up: first call builds predictor state

        def timed() -> float:
            t0 = time.perf_counter()
            for _ in range(30):
                service.forecast("s0")
            return time.perf_counter() - t0

        obs.disable()
        disabled_s = timed()
        obs.enable()
        enabled_s = timed()
        obs.disable()
        # Generous CI-safe bound: flag checks are orders of magnitude
        # below the forecast itself, so only gross regressions trip this.
        assert disabled_s < 3.0 * enabled_s + 0.05, (disabled_s, enabled_s)
