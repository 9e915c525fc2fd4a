"""The traced pass: per-layer numbers from the benchmark's own spans.

The same generated inputs drive the same closed loop, with a span
around every call into the service.  Beside the service, a *probe*
drives shadow objects for a few sampled sensors — a shadow ``SMiLer``, a
shadow ``SuffixKnnEngine`` + ``WindowLevelIndex``, a shadow
``AdaptiveEnsemble`` — fed the very readings the service ingests, and
replays the ``dtw.*`` / ``backend.*`` public functions on the shadow
engine's current query, series, candidate starts and answers.  Counts
come from accounting the program already publishes.  Nothing here
reaches into ``src/`` privates and no tracing is added inside ``src/``.

Order of one traced run::

    set-up -> shadows built and warmed
           -> blocks of plain rounds and traced rounds, alternating
           -> obs segment: blocks with repro.obs off and on, alternating
           -> one snapshot/restore cycle -> engine sweep (if asked)

A round's cost depends on where the query sits in the daily cycle and on
how long the history has grown, so both overheads compare blocks that
alternate over the same stretch of the stream.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import obs
from repro.backend import make_backend
from repro.core import SMiLer, SMiLerConfig
from repro.core.ar import AggregationPredictor
from repro.core.ensemble import AdaptiveEnsemble
from repro.core.gp_predictor import GaussianProcessPredictor
from repro.dtw import (
    compute_envelope,
    dtw_batch,
    dtw_batch_pruned,
    envelope_shift,
    lb_improved_profile,
    lb_kim_profile,
)
from repro.faults import FaultError, FaultInjectingBackend, parse_fault_profile
from repro.gp import GaussianProcessRegressor, loo_objective, robust_cholesky
from repro.index import SuffixKnnEngine
from repro.index.window_index import WindowLevelIndex
from repro.timeseries.series import ZNormStats

from catalogue import LAYER
from checks import accuracy, check_knn, count_failures, sampled_ids
from hostclock import HostClock
from loop import Driver, worker_count
from spans import Tracer, durations_ms, percentile_ms, self_times_ns
from workloads import Workload, generate

#: Traced phase: blocks of this many rounds, alternately plain (no spans,
#: no probe between rounds) and traced.
TRACE_BLOCK = 4
#: obs segment: blocks of this many rounds, alternately off and on.
OBS_BLOCK = 4
OBS_BLOCKS = 3
SWEEP_ROUNDS = 10
_LAYER_UNITS = {m.name: m.unit for m in LAYER}
#: Kernel replays one ``_search_one`` is made of (per item length).
_SEARCH_KERNELS = (
    "dtw.lb_kim", "dtw.lb_improved", "dtw.dtw_batch", "dtw.dtw_batch_pruned",
    "backend.k_select",
)
#: Accounting every ``SuffixKnnAnswer`` publishes.
_ANSWER_COUNTS = (
    "candidates_total", "candidates_verified", "pruned_kim", "pruned_window",
    "pruned_improved", "abandoned_early",
)


def _make_predictor(config: SMiLerConfig):
    if config.predictor == "ar":
        return AggregationPredictor()
    return GaussianProcessPredictor(
        initial_train_iters=config.initial_train_iters,
        online_train_iters=config.online_train_iters,
    )


class Shadow:
    """Stand-alone copies of one sensor's layers, built from the same
    inputs the service got and fed the same readings."""

    def __init__(self, sid, history, raw, workload: Workload, tracer: Tracer):
        """``history`` is what the sensor was registered with; ``raw`` is
        every raw value it has seen up to the shadow's starting tick."""
        self.sid = sid
        config = self.config = SMiLerConfig(**workload.config)
        self.horizon = min(config.horizons)
        # The service z-normalises with the registration history's moments.
        self.stats = ZNormStats(
            mean=float(np.mean(history)), std=max(float(np.std(history)), 1e-12)
        )
        values = self.stats.apply(raw)
        self.smiler = SMiLer(
            values, config, backend=make_backend(workload.backend), sensor_id=sid
        )
        search_config = self.smiler.engine.config
        self.backend = make_backend(workload.backend)
        with tracer.span("index.build", sid):
            self.engine = SuffixKnnEngine(values, search_config, self.backend)
        self.window = WindowLevelIndex(
            values, config.master_length, config.omega, config.rho,
            backend=make_backend(workload.backend),
        )
        self.window.build(values[-config.master_length :])
        self.ensemble = AdaptiveEnsemble(
            cells=config.grid,
            predictor_factory=lambda cell: _make_predictor(config),
            self_adaptive=config.self_adaptive,
            sleep_enabled=config.sleep_enabled,
        )
        self.answers = self.engine.search()
        self.envelopes: dict[int, object] = {}
        self.gp_cells = {}
        if config.predictor == "gp":
            self.gp_cells = {
                k: _make_predictor(config) for k in (8, 16, 32) if k in config.ekv
            }
        self.faulty = None
        if workload.fault_profile:
            self.faulty = FaultInjectingBackend(
                make_backend(workload.backend),
                parse_fault_profile(workload.fault_profile),
            )
        #: Published accounting, one entry per probed round.
        self.counts: list[dict] = []
        self.rows: list[int] = []

    # ------------------------------------------------------------- helpers
    def _z(self, reading: float) -> float:
        return float(self.stats.apply(np.array([reading]))[0])

    def _cell_inputs(self, cells):
        """``(query, X_{k,d}, Y_h)`` per cell from the shadow engine's
        current answers — what the prediction step feeds a predictor."""
        series = self.engine.series
        inputs = {}
        for k, d in cells:
            starts, _ = self.answers[d].top(k)
            inputs[(k, d)] = (
                self.engine.item_query(d),
                sliding_window_view(series, d)[starts],
                series[starts + d - 1 + self.horizon],
            )
        return inputs

    # --------------------------------------------------------------- probe
    def predict(self, tracer: Tracer) -> None:
        with tracer.span("core.predict", self.sid):
            self.smiler.predict(horizon=self.horizon)

    def observe(self, reading: float, tracer: Tracer) -> None:
        z = self._z(reading)
        with tracer.span("core.observe", self.sid):
            self.smiler.observe(z)

    def catch_up(self, readings: list[float]) -> None:
        """Take in the readings of a plain block, untimed."""
        for z in self.stats.apply(np.asarray(readings)):
            self.smiler.observe(float(z))
            self.engine.advance(float(z))
            self.window.step(float(z))
        self.answers = self.engine.search()

    def probe_layers(self, reading: float, tracer: Tracer) -> None:
        """Everything below ``core``: ensemble, GP, index, DTW, backend."""
        sid = self.sid
        z = self._z(reading)
        with tracer.span("probe.sensor", sid):
            self._probe_prediction(z, tracer)
            with tracer.span("index.advance", sid):
                self.engine.advance(z)
            with tracer.span("index.window_step", sid):
                self.window.step(z)
            with tracer.span("index.search", sid):
                self.answers = self.engine.search()
            with tracer.span("index.group_lb", sid):
                bounds = self.engine.group_index.compute()
            for d in self.engine.config.item_lengths:
                self._replay_kernels(d, bounds[d], tracer)
        totals = defaultdict(int)
        for answer in self.answers.values():
            for key in _ANSWER_COUNTS:
                totals[key] += getattr(answer, key)
        totals["answers"] = len(self.answers)
        totals["awake_cells"] = len(
            self.smiler.ensemble(self.horizon).awake_cells()
        )
        self.counts.append(dict(totals))

    def _probe_prediction(self, z: float, tracer: Tracer) -> None:
        sid = self.sid
        inputs = self._cell_inputs(self.ensemble.awake_cells())
        with tracer.span("core.ensemble_predict", sid):
            output = self.ensemble.predict(inputs)
        with tracer.span("core.ensemble_update", sid):
            self.ensemble.update(z, output.components)
        if not self.gp_cells:
            return
        d = self.config.elv[len(self.config.elv) // 2]
        cells = self._cell_inputs([(k, d) for k in self.gp_cells])
        for k, predictor in self.gp_cells.items():
            with tracer.span(f"gp.predict_cell_k{k}", sid):
                predictor.predict(*cells[(k, d)])
        k, predictor = max(self.gp_cells.items())
        _, neighbours, targets = cells[(k, d)]
        centred = targets - targets.mean()
        kernel = predictor.kernel
        with tracer.span("gp.loo_objective", sid):
            loo_objective(kernel.log_params, neighbours, centred)
        with tracer.span("gp.fit", sid):
            GaussianProcessRegressor(kernel).fit(neighbours, centred)
        covariance = kernel.matrix(neighbours, noise=True)
        with tracer.span("gp.cholesky", sid):
            robust_cholesky(covariance)

    def _replay_kernels(self, d: int, item_bounds, tracer: Tracer) -> None:
        """The cascade's kernel calls for item length ``d``, replayed
        one by one on the inputs the search just used."""
        sid = self.sid
        config = self.engine.config
        rho = config.rho
        series = self.engine.series
        query = self.engine.item_query(d)
        starts = np.arange(series.size - d - config.margin + 1)
        segments = sliding_window_view(series, d)
        answer = self.answers[d]
        tau = float(answer.distances[-1])
        seeds = np.sort(answer.starts)

        with tracer.span("dtw.envelope_compute", sid):
            envelope = compute_envelope(query, rho)
        previous = self.envelopes.get(d)
        if previous is not None:
            with tracer.span("dtw.envelope_shift", sid):
                envelope_shift(query, previous)
        self.envelopes[d] = envelope

        with tracer.span("dtw.lb_kim", sid):
            kim = lb_kim_profile(query, series, starts)
        window_bound = item_bounds.bound(config.lb_mode)[starts]
        survivors = starts[(kim <= tau) & (window_bound <= tau)]
        with tracer.span("dtw.lb_improved", sid):
            improved, terms = lb_improved_profile(
                query, segments[survivors], rho,
                query_envelope=envelope, return_terms=True,
            )
        keep = improved <= tau
        with tracer.span("dtw.dtw_batch", sid):
            dtw_batch(query, segments[seeds], rho)
        with tracer.span("dtw.dtw_batch_pruned", sid):
            distances = dtw_batch_pruned(
                query, segments[survivors[keep]], rho,
                cutoff=tau, lb_terms=terms[keep],
            )
        self.rows += [int(seeds.size), int(keep.sum())]
        with tracer.span("backend.dtw_verification", sid):
            self.backend.dtw_verification(query, segments[seeds], rho)
        pool = distances[np.isfinite(distances)]
        with tracer.span("backend.k_select", sid):
            self.backend.k_select(pool, min(config.k_max, pool.size))
        if self.faulty is not None:
            t0 = time.perf_counter_ns()
            try:
                self.faulty.dtw_verification(query, segments[seeds], rho)
            except FaultError:
                return  # an injected fault: not a timing of the wrapper
            tracer.add("faults.dtw_verification", t0, time.perf_counter_ns(), sid)


def _build_shadows(driver: Driver, tracer: Tracer) -> list[Shadow]:
    """Shadows of the sampled sensors, built one tick in the past and
    warmed on the latest reading so their first traced round is a steady
    one (no initial GP fit, no cold search)."""
    w = driver.workload
    shadows, latest = [], {}
    for sid in sampled_ids(driver):
        stream = int(sid[1:])
        seen = driver.streams[
            stream, driver.joined[stream] : w.history + driver.tick
        ]
        shadows.append(
            Shadow(sid, driver.history_of(stream), seen[:-1], w, tracer)
        )
        latest[sid] = float(seen[-1])
    probe_round(shadows, latest, Tracer())
    for shadow in shadows:
        shadow.counts.clear()
        shadow.rows.clear()
    return shadows


def probe_round(shadows: list[Shadow], readings: dict, tracer: Tracer) -> None:
    """One round of the probe.  Predicts run back to back, then observes,
    as the service runs them, so the shadows' timings see the same cache
    state; the layer-by-layer replays follow."""
    with tracer.span("probe"):
        for shadow in shadows:
            shadow.predict(tracer)
        for shadow in shadows:
            shadow.observe(readings[shadow.sid], tracer)
        for shadow in shadows:
            shadow.probe_layers(readings[shadow.sid], tracer)


def _count_obs_spans(span) -> int:
    return 0 if span is None else 1 + sum(
        _count_obs_spans(child) for child in span.children
    )


def _obs_segment(driver: Driver, clock: HostClock, rounds_done: int) -> dict:
    """Alternate blocks of rounds with ``repro.obs`` off and on, on the
    same service (``rounds_done`` keeps the maintenance schedule going)."""
    off_ms, on_ms, span_counts = [], [], []
    evacuations = 0.0

    def count_forecast_tree():
        span_counts.append(_count_obs_spans(driver.service.trace_last_request()))

    try:
        for block in range(2 * OBS_BLOCKS):
            enabled = block % 2 == 1
            if enabled:
                obs.enable()
            else:
                obs.disable()
            for _ in range(OBS_BLOCK):
                _, round_ms = clock.round_ms(
                    driver, count_forecast_tree if enabled else None
                )
                if enabled:
                    span_counts[-1] += _count_obs_spans(
                        driver.service.trace_last_request()
                    )
                (on_ms if enabled else off_ms).append(round_ms)
                rounds_done += 1
                driver.maintenance(rounds_done)
        for series in driver.service.metrics().get(
            "smiler_backend_evacuations_total", {}
        ).get("series", []):
            evacuations += float(series.get("value", 0.0))
    finally:
        obs.disable()
        obs.reset()
    off, on = statistics.median(off_ms), statistics.median(on_ms)
    return {
        "obs.overhead_pct": 100.0 * (on - off) / off,
        "obs.spans_per_round": statistics.fmean(span_counts),
        "service.evacuations": evacuations / len(on_ms),
    }


def _engine_sweep(workload: Workload, streams, seed, tmp_dir) -> dict:
    """The same inputs through each engine, a few rounds each."""
    metrics = {}
    for engine in ("inline", "thread", "process"):
        driver = Driver(replace(workload, engine=engine), streams, seed, tmp_dir)
        try:
            driver.setup()
            records = [driver.round() for _ in range(SWEEP_ROUNDS)]
        finally:
            t0 = time.perf_counter_ns()
            driver.close()
            close_ms = (time.perf_counter_ns() - t0) / 1e6
        metrics[f"exec.{engine}.round_ms"] = statistics.median(
            r.round_ms for r in records
        )
        if engine == "process":
            steady = statistics.median(r.forecast_ns for r in records)
            first = driver.warmup_records[0].forecast_ns
            metrics["exec.process.startup_ms"] = (first - steady) / 1e6
            metrics["exec.process.close_ms"] = close_ms
    return metrics


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _traced_phase(
    driver: Driver, shadows: list[Shadow], tracer: Tracer, clock: HostClock
):
    """Blocks of plain and traced rounds, alternating.  Returns every
    round's record, the traced ones, and the traced and plain rounds'
    walls in reference milliseconds."""
    records, traced_records, traced_ms, plain_ms = [], [], [], []
    for block in range(2 * driver.workload.trace_rounds // TRACE_BLOCK):
        is_traced = block % 2 == 1
        driver.tracer = tracer if is_traced else None
        for _ in range(TRACE_BLOCK):
            if is_traced:
                tracer.round = len(traced_records)
                with tracer.span("round"):
                    record, round_ms = clock.round_ms(driver)
                    probe_round(shadows, record.readings, tracer)
                traced_records.append(record)
                traced_ms.append(round_ms)
            else:
                record, round_ms = clock.round_ms(driver)
                plain_ms.append(round_ms)
            records.append(record)
            driver.maintenance(len(records))
        if not is_traced:
            for shadow in shadows:
                shadow.catch_up(
                    [r.readings[shadow.sid] for r in records[-TRACE_BLOCK:]]
                )
    tracer.round = None
    driver.tracer = None
    return records, traced_records, traced_ms, plain_ms


def _span_metrics(workload: Workload, spans: list[dict], records) -> dict:
    """Mean milliseconds per call, by layer, from the recorded spans."""
    traced = [s for s in spans if s["round"] is not None]

    def mean_ms(name: str, pool=traced) -> float:
        return _mean(durations_ms(pool, name))

    # Sensors one lane serves one after the other: the whole fleet
    # inline, a shard's share when shards run side by side.
    lanes = 1 if workload.engine == "inline" else min(
        workload.shards, worker_count()
    )
    per_lane = _mean(len(r.readings) for r in records) / lanes
    forecast_ms = durations_ms(traced, "service.forecast_all")
    ingest_ms = durations_ms(traced, "service.ingest_many")
    values = {
        "service.forecast_all_ms": _mean(forecast_ms),
        "service.ingest_many_ms": _mean(ingest_ms),
        "service.forecast_all_p90_ms": percentile_ms(forecast_ms, 90),
        "service.ingest_many_p90_ms": percentile_ms(ingest_ms, 90),
        "service.shell_forecast_ms": _mean(forecast_ms)
        - per_lane * mean_ms("core.predict"),
        "service.shell_ingest_ms": _mean(ingest_ms)
        - per_lane * mean_ms("core.observe"),
    }
    # Set-up, maintenance and the closing snapshot/restore carry no
    # round number, so these are averaged over every span recorded.
    for name in (
        "service.register", "service.deregister", "persistence.snapshot",
        "persistence.restore", "index.build",
    ):
        values[f"{name}_ms"] = mean_ms(name, spans)
    for name in (
        "core.predict", "core.observe", "core.ensemble_predict",
        "core.ensemble_update", "gp.predict_cell_k8", "gp.predict_cell_k16",
        "gp.predict_cell_k32", "gp.loo_objective", "gp.fit", "gp.cholesky",
        "index.advance", "index.window_step", "index.group_lb", "index.search",
        "dtw.lb_kim", "dtw.lb_improved", "dtw.dtw_batch", "dtw.dtw_batch_pruned",
        "dtw.envelope_compute", "dtw.envelope_shift",
        "backend.dtw_verification", "backend.k_select",
    ):
        values[f"{name}_ms"] = mean_ms(name)
    # search self time: one search minus its group bounds and the kernel
    # calls it is made of, summed over item lengths per sensor-round.
    kernels_ms = sum(
        sum(durations_ms(traced, name)) for name in _SEARCH_KERNELS
    ) / max(len(durations_ms(traced, "index.search")), 1)
    values["index.search_glue_ms"] = (
        values["index.search_ms"] - values["index.group_lb_ms"] - kernels_ms
    )
    wrapped = mean_ms("faults.dtw_verification")
    values["faults.wrapper_ms"] = (
        wrapped - values["backend.dtw_verification_ms"] if wrapped else 0.0
    )
    return values


def _count_metrics(shadows: list[Shadow], records) -> dict:
    """Counts per round, from accounting the program publishes."""
    values = {}
    forecasts = [f for r in records for f in r.batch.values()]
    for rung in ("ensemble", "reduced", "ar", "naive"):
        values[f"service.rung.{rung}"] = (
            sum(f.source == rung for f in forecasts) / len(records)
        )
    values["core.mae"], values["service.degraded_share"] = accuracy(records)
    counts = [c for shadow in shadows for c in shadow.counts]
    for key in _ANSWER_COUNTS:
        values[f"index.{key}"] = _mean(c[key] for c in counts)
    values["index.verified_share"] = values["index.candidates_verified"] / max(
        values["index.candidates_total"], 1.0
    )
    values["core.awake_cells"] = _mean(c["awake_cells"] for c in counts)
    # Every answer a search returns cost two verification calls (seed
    # pool, survivors); scaled from the sampled sensors to the fleet.
    values["backend.dtw_verification_calls"] = (
        2.0 * _mean(c["answers"] for c in counts)
        * _mean(len(r.readings) for r in records)
    )
    values["dtw.rows_per_call"] = _mean(r for s in shadows for r in s.rows)
    predictors = [p for s in shadows for p in s.gp_cells.values()]
    values["gp.cg_iterations"] = sum(p.cg_iterations for p in predictors) / max(
        sum(p.train_calls for p in predictors), 1
    )
    return values


def run_traced(workload: Workload, seed: int, out_dir, tmp_dir) -> dict:
    t0 = time.perf_counter()
    streams = generate(workload, seed)
    generator_s = time.perf_counter() - t0

    tracer = Tracer()
    clock = HostClock()
    driver = Driver(workload, streams, seed, tmp_dir, tracer=tracer)
    try:
        driver.setup()
        shadows = _build_shadows(driver, tracer)
        ledger0, health0 = driver.ledger(), driver.health()
        records, traced_records, traced_ms, plain_ms = _traced_phase(
            driver, shadows, tracer, clock
        )
        ledger1, health1 = driver.ledger(), driver.health()
        values = _obs_segment(driver, clock, len(records))

        # Reuse counters and footprint, from the service's own sensors.
        reuse = defaultdict(int)
        memory = 0
        for sid in driver.live_ids:
            diagnostics = driver.service.sensor(sid).diagnostics()
            memory += diagnostics["memory_bytes"]
            for key, value in diagnostics["index_reuse"].items():
                reuse[key] += value
        checks = {"knn_equals_reference": check_knn(driver)}

        driver.tracer = tracer
        if not driver.op_ns["persistence.restore"]:
            driver.restore_cycle()
    finally:
        driver.close()
    attempted, failed = count_failures(records)
    checks["forecasts_finite_std_positive"] = {
        "ok": failed == 0, "detail": f"{failed} of {attempted} operations failed",
    }

    spans = tracer.spans
    plain = statistics.median(plain_ms)
    values.update(_span_metrics(workload, spans, records))
    values.update(_count_metrics(shadows, records))
    for name, totals, key in (
        ("service.retries", (health0, health1), "failures"),
        ("backend.breaker_opens", (health0, health1), "trips"),
        ("backend.kernel_launches", (ledger0, ledger1), "launches"),
        ("backend.sim_s", (ledger0, ledger1), "sim_s"),
        ("faults.injected", (ledger0, ledger1), "injected"),
    ):
        values[name] = (totals[1][key] - totals[0][key]) / len(records)
    values.update({
        "persistence.bytes_per_sensor": driver.snapshot_bytes_per_sensor,
        "index.memory_bytes": memory / max(len(driver.live), 1),
        "index.rows_reused_share": reuse["rows_reused"]
        / max(sum(reuse.values()), 1),
        "bench.generator_s": generator_s,
        "bench.trace_overhead_pct": 100.0
        * (statistics.median(traced_ms) - plain) / plain,
    })
    if workload.engine_sweep:
        values.update(_engine_sweep(workload, streams, seed, tmp_dir))
    unknown = set(values) - set(_LAYER_UNITS)
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {sorted(unknown)}")

    selfs = self_times_ns(spans)
    by_name = defaultdict(int)
    for span in spans:
        if span["round"] is not None:
            by_name[span["name"]] += selfs[span["id"]]
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}-{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "sampled": [s.sid for s in shadows],
        "self_ms_by_name": {k: v / 1e6 for k, v in sorted(by_name.items())},
        "spans": spans,
    }) + "\n")

    # A layer this workload does not run (no GP, no faults, no sweep)
    # reports 0 for its metrics.
    return {
        "rounds": len(traced_records),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "trace_file": trace_path.name,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in _LAYER_UNITS.items()
        },
    }
