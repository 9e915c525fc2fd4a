"""The names every later issue must use: workloads, end-to-end metrics
and per-layer metrics, with units, the good direction and — for layer
metrics — the end-to-end metric each one should move.

End-to-end timings are in reference milliseconds (``hostclock.py``);
per-layer timings are raw wall.  ``BENCHMARK.json`` lists the *contract*
subset of the end-to-end metrics (a non-zero number on every workload,
steady across seeds) with the bounds the A/A runs set; the rest are
printed by ``run.py`` and compared by ``run.py compare`` with the bounds
given here.  ``tests/test_roundbench_catalogue.py`` pins the two files
to each other.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["E2E", "LAYER", "Metric"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str
    #: End-to-end only: True when the metric is a non-zero number on
    #: every workload and therefore listed (with its bound) in
    #: ``BENCHMARK.json``.
    contract: bool = False
    #: End-to-end metrics outside the contract carry their own bound:
    #: relative unless ``absolute``.
    bound: float | None = None
    absolute: bool = False
    #: Per-layer only: which end-to-end metric it should move, where.
    moves: str = ""


E2E: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "inputs ready -> start of measured phase: build service, register "
           "every sensor, 3 warm-up rounds; median of 3-7 set-ups per run",
           contract=True),
    Metric("round_p50_ms", "ms", "lower",
           "median wall of one round (forecast_all + ingest_many)",
           contract=True),
    Metric("round_p90_ms", "ms", "lower",
           "p90 of the same (>= 100 rounds, so >= 10 samples beyond it)",
           contract=True),
    Metric("forecast_p50_ms", "ms", "lower", "median wall of forecast_all",
           contract=True),
    Metric("ingest_p50_ms", "ms", "lower", "median wall of ingest_many",
           contract=True),
    Metric("sensor_ticks_per_s", "1/s", "higher",
           "sensor-rounds completed / time the measured phase spent in rounds, "
           "churn and restore cycles",
           contract=True),
    Metric("mae", "raw", "lower",
           "mean |h=1 forecast mean - next reading| over the first 100 "
           "measured rounds (exact for a seed; between seeds it swings with "
           "the one sensor drawn, so it is not in the contract)", bound=0.01),
    Metric("index_kb_per_sensor", "KiB", "lower",
           "sum of SMiLer.memory_bytes() / sensors, read right after "
           "registration", contract=True),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the workload subprocess plus its reaped children",
           contract=True),
    Metric("failed_share", "ratio", "lower",
           "(ForecastBatch.errors + raised ingest_many + non-finite or "
           "non-positive-std forecasts) / operations attempted",
           bound=0.0, absolute=True),
    Metric("degraded_share", "ratio", "lower",
           "forecasts with degraded=True / forecasts attempted, first 100 "
           "measured rounds", bound=0.002, absolute=True),
    Metric("sim_s_per_round", "s", "lower",
           "sum over shards of backend.elapsed_s / rounds, first 100 measured "
           "rounds (simulated backends only; null on native)", bound=0.01),
    Metric("restore_p50_ms", "ms", "lower",
           "median wall of the snapshot -> close -> new service -> restore "
           "cycles (churn-faulted only)", bound=0.25),
)


def _layer(layer: str, moves: str, *metrics: tuple[str, str, str, str]):
    return tuple(
        Metric(f"{layer}.{name}", unit, better, what, moves=moves)
        for name, unit, better, what in metrics
    )


LAYER: tuple[Metric, ...] = (
    *_layer(
        "service",
        "shell self times -> round_p50_ms on fleet-stream (nothing on "
        "deep-search: two sensors); register -> setup_s everywhere and "
        "sensor_ticks_per_s on churn-faulted; rung counts -> degraded_share "
        "on churn-faulted",
        ("forecast_all_ms", "ms", "lower", "mean wall of forecast_all"),
        ("ingest_many_ms", "ms", "lower", "mean wall of ingest_many"),
        ("forecast_all_p90_ms", "ms", "lower", "p90 over the traced rounds"),
        ("ingest_many_p90_ms", "ms", "lower", "p90 over the traced rounds"),
        ("shell_forecast_ms", "ms", "lower",
         "forecast_all minus sensors x mean core.predict_ms (self time)"),
        ("shell_ingest_ms", "ms", "lower",
         "ingest_many minus sensors x mean core.observe_ms (self time)"),
        ("register_ms", "ms", "lower", "mean wall of one register()"),
        ("deregister_ms", "ms", "lower", "mean wall of one deregister()"),
        ("rung.ensemble", "count", "higher", "forecasts per round by rung"),
        ("rung.reduced", "count", "lower", "forecasts per round by rung"),
        ("rung.ar", "count", "lower", "forecasts per round by rung"),
        ("rung.naive", "count", "lower", "forecasts per round by rung"),
        ("degraded_share", "ratio", "lower",
         "degraded forecasts / forecasts over the traced rounds"),
        ("retries", "count", "lower",
         "failed attempts charged to breakers per round (status() health)"),
        ("evacuations", "count", "lower",
         "evacuations per round in the obs-enabled segment"),
    ),
    *_layer(
        "exec",
        "round_p50_ms on fleet-stream vs fleet-stream-proc; startup -> "
        "setup_s on fleet-stream-proc",
        ("inline.round_ms", "ms", "lower", "engine sweep: median round"),
        ("thread.round_ms", "ms", "lower", "engine sweep: median round"),
        ("process.round_ms", "ms", "lower", "engine sweep: median round"),
        ("process.startup_ms", "ms", "lower",
         "first process-engine batch (fork + state hand-off) minus a "
         "steady batch"),
        ("process.close_ms", "ms", "lower", "service.close() on the process "
         "engine (state flush + worker join)"),
    ),
    *_layer(
        "core",
        "predict -> forecast_p50_ms on gp-forecast; observe -> "
        "ingest_p50_ms on all",
        ("predict_ms", "ms", "lower", "shadow SMiLer.predict, mean per call"),
        ("observe_ms", "ms", "lower", "shadow SMiLer.observe, mean per call"),
        ("ensemble_predict_ms", "ms", "lower", "AdaptiveEnsemble.predict"),
        ("ensemble_update_ms", "ms", "lower", "AdaptiveEnsemble.update"),
        ("awake_cells", "count", "lower", "awake ensemble cells per predict"),
        ("mae", "raw", "lower",
         "mean |h=1 forecast mean - next reading| over the traced phase"),
    ),
    *_layer(
        "gp",
        "forecast_p50_ms on gp-forecast only; 0 (layer not run) on the "
        "four AR workloads",
        ("predict_cell_k8_ms", "ms", "lower",
         "GaussianProcessPredictor.predict on the k=8 cell inputs"),
        ("predict_cell_k16_ms", "ms", "lower", "same, k=16"),
        ("predict_cell_k32_ms", "ms", "lower", "same, k=32"),
        ("loo_objective_ms", "ms", "lower", "one loo_objective evaluation"),
        ("fit_ms", "ms", "lower", "GaussianProcessRegressor.fit"),
        ("cholesky_ms", "ms", "lower", "robust_cholesky of the k=32 kernel"),
        ("cg_iterations", "count", "lower",
         "CG iterations per predictor call (predictor.cg_iterations)"),
    ),
    *_layer(
        "index",
        "search/glue -> ingest_p50_ms on fleet-stream (glue) and "
        "deep-search (arithmetic); build -> setup_s, restore_p50_ms and "
        "sensor_ticks_per_s on churn-faulted; counts -> sim_s_per_round on "
        "deep-search; memory -> index_kb_per_sensor",
        ("build_ms", "ms", "lower", "SuffixKnnEngine(...) construction"),
        ("advance_ms", "ms", "lower", "SuffixKnnEngine.advance"),
        ("window_step_ms", "ms", "lower", "WindowLevelIndex.step"),
        ("group_lb_ms", "ms", "lower", "GroupLevelIndex.compute"),
        ("search_ms", "ms", "lower", "SuffixKnnEngine.search"),
        ("search_glue_ms", "ms", "lower",
         "search minus group_lb minus the replayed dtw/backend calls"),
        ("candidates_total", "count", "lower", "per sensor-round, all items"),
        ("candidates_verified", "count", "lower", "per sensor-round"),
        ("pruned_kim", "count", "higher", "per sensor-round"),
        ("pruned_window", "count", "higher", "per sensor-round"),
        ("pruned_improved", "count", "higher", "per sensor-round"),
        ("abandoned_early", "count", "higher", "per sensor-round"),
        ("verified_share", "ratio", "lower", "verified / total candidates"),
        ("rows_reused_share", "ratio", "higher",
         "window-index rows reused / rows touched (diagnostics())"),
        ("memory_bytes", "B", "lower", "SMiLer.memory_bytes() per sensor"),
    ),
    *_layer(
        "dtw",
        "ingest_p50_ms on deep-search; at most a few % on fleet-stream, "
        "where calls are tiny",
        ("lb_kim_ms", "ms", "lower", "lb_kim_profile over all candidates"),
        ("lb_improved_ms", "ms", "lower", "lb_improved_profile on survivors"),
        ("dtw_batch_ms", "ms", "lower", "dtw_batch on the seed rows"),
        ("dtw_batch_pruned_ms", "ms", "lower",
         "dtw_batch_pruned on survivor rows with cutoff + LB tails"),
        ("envelope_compute_ms", "ms", "lower", "compute_envelope(query)"),
        ("envelope_shift_ms", "ms", "lower", "envelope_shift(query)"),
        ("rows_per_call", "count", "lower", "rows per replayed DTW call"),
    ),
    *_layer(
        "backend",
        "launches/sim -> sim_s_per_round on deep-search; call count -> "
        "ingest_p50_ms on fleet-stream",
        ("dtw_verification_ms", "ms", "lower",
         "backend.dtw_verification on the seed rows"),
        ("dtw_verification_calls", "count", "lower",
         "per round: 2 per SuffixKnnAnswer produced, scaled to the fleet"),
        ("k_select_ms", "ms", "lower", "backend.k_select on the verified pool"),
        ("kernel_launches", "count", "lower",
         "backend.cost.launches per round (0 on native: not modelled)"),
        ("sim_s", "s", "lower", "simulated seconds per round (0 on native)"),
        ("breaker_opens", "count", "lower", "breaker trips per round"),
    ),
    *_layer(
        "faults",
        "round_p50_ms, degraded_share on churn-faulted; 0 elsewhere",
        ("injected", "count", "lower", "faults injected per round"),
        ("wrapper_ms", "ms", "lower",
         "dtw_verification through FaultInjectingBackend minus bare"),
    ),
    *_layer(
        "persistence",
        "restore_p50_ms on churn-faulted",
        ("snapshot_ms", "ms", "lower", "service.snapshot(dir)"),
        ("restore_ms", "ms", "lower", "fresh service .restore(dir)"),
        ("bytes_per_sensor", "B", "lower", "snapshot bytes / sensors"),
    ),
    *_layer(
        "obs",
        "would move every wall metric if the disabled path stopped being free",
        ("overhead_pct", "%", "lower",
         "round median with obs.enable() vs disabled, same service"),
        ("spans_per_round", "count", "lower",
         "repro.obs spans in one round's two request trees"),
    ),
    *_layer(
        "bench",
        "- (instrument cost)",
        ("trace_overhead_pct", "%", "lower",
         "traced vs untraced round median in the same process"),
        ("generator_s", "s", "lower", "input generation wall"),
    ),
)
