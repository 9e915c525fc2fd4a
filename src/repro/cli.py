"""Command-line interface: regenerate any paper table/figure or run a demo.

Usage (installed as the ``repro`` package)::

    python -m repro.cli list
    python -m repro.cli run fig8 --preset small
    python -m repro.cli run table3 --preset paper --out results/table3.txt
    python -m repro.cli run fig7 --preset tiny --metrics-out results/fig7_metrics.json
    python -m repro.cli demo --dataset MALL --steps 20
    python -m repro.cli stats --dataset ROAD --steps 5
    python -m repro.cli trace --out trace.json --sensors 8 --workers 4
    python -m repro.cli ablate --out fresh.json

Presets scale the synthetic workloads: ``tiny`` (seconds, CI-friendly),
``small`` (the benchmark defaults), ``paper`` (hours; closest to the
paper's data sizes).

``stats`` runs a short instrumented serving loop and prints the span
tree of the last forecast, SLO attainment, the tail of the structured
event log and a Prometheus-text metrics export — the quickest way to
see the observability layer (``docs/observability.md``) in action.

``trace`` runs an instrumented multi-sensor ``forecast_all`` loop and
exports the last request's span tree (one track per worker lane) plus
its event-log lines as Chrome trace-event JSON — open the file at
https://ui.perfetto.dev or ``chrome://tracing``.

``demo`` and ``stats`` accept ``--fault-profile`` (a named profile such
as ``flaky-kernels``, or a ``key=value`` spec — see
``docs/robustness.md``) to run the loop under deterministic fault
injection and watch the degradation ladder serve through it.

``ablate`` runs the system-wide ablation study (``repro.ablation``):
baseline plus one-component-off runs with stable deterministic run IDs,
a ranked importance report, and ``BENCH_ablation.json`` — the repo's one
deterministic-counter bench, on one workload (``benchmarks/gate.py
--fresh`` compares a fresh payload against the committed file; wall-clock
is ``benchmarks/roundbench``'s).  Every run is exactness-checked against
the full-DTW oracle and, for components that declare themselves pure
optimisations, bit-exact forecast parity with the baseline.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys

from . import ablation, harness, obs
from .backend import BACKEND_NAMES, make_backend
from .exec import ENGINE_NAMES
from .faults import FAULT_PROFILE_NAMES
from .core import SMiLerConfig
from .harness import AccuracyScale, SearchScale
from .service import PredictionService, ServiceConfig
from .timeseries import make_dataset

__all__ = ["main", "EXPERIMENTS"]

_SEARCH_PRESETS = {
    "tiny": SearchScale(n_sensors=1, n_points=1500, continuous_steps=3),
    "small": SearchScale(n_sensors=2, n_points=12_000, continuous_steps=8),
    "paper": SearchScale(n_sensors=8, n_points=60_000, continuous_steps=100),
}
_ACCURACY_PRESETS = {
    "tiny": AccuracyScale(
        n_sensors=1, n_points=1500, test_points=30, steps=15, horizons=(1, 5)
    ),
    "small": AccuracyScale(
        n_sensors=2, n_points=4000, test_points=140, steps=110,
        horizons=(1, 5, 10, 20, 30),
    ),
    "paper": AccuracyScale(
        n_sensors=8, n_points=40_000, test_points=1000, steps=200,
        horizons=(1, 5, 10, 15, 20, 25, 30),
    ),
}

#: experiment name -> (driver attribute, which preset family it takes)
EXPERIMENTS = {
    "fig1": ("render_fig1", None),
    "table3": ("run_table3", "search"),
    "fig7": ("run_fig7", "search"),
    "fig8": ("run_fig8", "search"),
    "fig9": ("run_fig9", "accuracy"),
    "fig10": ("run_fig10", "accuracy"),
    "fig11": ("run_fig11", "accuracy"),
    "table4": ("run_table4", "accuracy"),
    "fig12": ("run_fig12", "accuracy"),
    "fig13": ("run_fig13", "accuracy"),
    "calibration": ("run_calibration_study", "accuracy"),
    "measures": ("run_measure_comparison", None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMiLer (SIGMOD'15) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="regenerate one table/figure")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument(
        "--preset", choices=("tiny", "small", "paper"), default="small",
        help="workload size (default: small)",
    )
    run.add_argument("--out", type=pathlib.Path, help="also write to this file")
    run.add_argument(
        "--metrics-out", type=pathlib.Path,
        help="run instrumented and dump a JSON metrics snapshot here",
    )

    run_all = sub.add_parser(
        "run-all", help="regenerate every table/figure into a directory"
    )
    run_all.add_argument(
        "--preset", choices=("tiny", "small", "paper"), default="small",
    )
    run_all.add_argument(
        "--out-dir", type=pathlib.Path, default=pathlib.Path("results"),
    )
    run_all.add_argument(
        "--metrics", action="store_true",
        help="also dump <experiment>_metrics.json alongside each result",
    )

    demo = sub.add_parser("demo", help="continuous prediction on one sensor")
    demo.add_argument("--dataset", default="ROAD", help="ROAD, MALL or NET")
    demo.add_argument("--steps", type=int, default=20)
    demo.add_argument(
        "--predictor", choices=("gp", "ar"), default="gp",
    )
    demo.add_argument(
        "--backend", choices=BACKEND_NAMES, default="simulated",
        help="compute backend: 'simulated' keeps the paper's cost-model "
        "accounting, 'native' is the plain-NumPy fast path",
    )
    demo.add_argument(
        "--fault-profile", default=None, metavar="PROFILE",
        help="wrap the backend in deterministic fault injection: a named "
        f"profile ({', '.join(FAULT_PROFILE_NAMES)}) or a key=value spec "
        "(see docs/robustness.md)",
    )
    demo.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="lane bound of the thread engine (--engine thread; one lane "
        "per backend shard, default 1) — results are bit-identical at any "
        "worker count",
    )
    demo.add_argument(
        "--engine", choices=ENGINE_NAMES, default=None,
        help="execution engine (default: REPRO_EXEC, else inline) — "
        "results are bit-identical on every engine",
    )

    stats = sub.add_parser(
        "stats", help="short instrumented serving loop: trace + metrics"
    )
    stats.add_argument("--dataset", default="ROAD", help="ROAD, MALL or NET")
    stats.add_argument("--steps", type=int, default=5)
    stats.add_argument(
        "--predictor", choices=("gp", "ar"), default="gp",
    )
    stats.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="metrics output format (default: prom)",
    )
    stats.add_argument(
        "--backend", choices=BACKEND_NAMES, default="simulated",
        help="compute backend serving the loop (default: simulated)",
    )
    stats.add_argument(
        "--fault-profile", default=None, metavar="PROFILE",
        help="wrap the backend in deterministic fault injection: a named "
        f"profile ({', '.join(FAULT_PROFILE_NAMES)}) or a key=value spec "
        "(see docs/robustness.md)",
    )
    stats.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="lane bound of the thread engine (--engine thread; one lane "
        "per backend shard, default 1)",
    )
    stats.add_argument(
        "--engine", choices=ENGINE_NAMES, default=None,
        help="execution engine (default: REPRO_EXEC, else inline)",
    )
    stats.add_argument(
        "--events", type=int, default=10, metavar="N",
        help="show the last N structured event-log lines (default: 10)",
    )

    trace = sub.add_parser(
        "trace",
        help="export one forecast_all request as Chrome trace-event JSON",
    )
    trace.add_argument(
        "--out", type=pathlib.Path, required=True, metavar="PATH",
        help="write the Chrome trace-event JSON here (open in Perfetto "
        "or chrome://tracing)",
    )
    trace.add_argument("--dataset", default="ROAD", help="ROAD, MALL or NET")
    trace.add_argument(
        "--sensors", type=int, default=8, metavar="N",
        help="fleet size (default: 8)",
    )
    trace.add_argument(
        "--backends", type=int, default=4, metavar="N",
        help="backend pool size — one worker lane per backend (default: 4)",
    )
    trace.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="lane bound of the thread engine (--engine thread; default: 4)",
    )
    trace.add_argument(
        "--engine", choices=ENGINE_NAMES, default=None,
        help="execution engine; 'process' shows one shard worker process "
        "per lane in the exported trace (default: REPRO_EXEC, else "
        "inline)",
    )
    trace.add_argument(
        "--steps", type=int, default=2,
        help="ingest_many + forecast_all rounds before the export "
        "(default: 2; the last round's forecast_all is exported)",
    )
    trace.add_argument(
        "--predictor", choices=("gp", "ar"), default="ar",
        help="per-sensor predictor (default: ar — fast, trace-friendly)",
    )
    trace.add_argument(
        "--backend", choices=BACKEND_NAMES, default="simulated",
        help="compute backend; 'simulated' adds gpu_sim async slices "
        "to the trace (default: simulated)",
    )
    trace.add_argument(
        "--fault-profile", default=None, metavar="PROFILE",
        help="wrap every backend in deterministic fault injection so "
        "degradations and breaker trips show up as trace instants",
    )
    trace.add_argument(
        "--metrics-out", type=pathlib.Path, default=None, metavar="PATH",
        help="also dump a JSON metrics snapshot here",
    )

    ablate = sub.add_parser(
        "ablate",
        help="system-wide ablation study: ranked component importance "
        "+ BENCH_ablation.json",
    )
    ablate.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("BENCH_ablation.json"),
        metavar="PATH",
        help="where to write the JSON payload (default: BENCH_ablation.json)",
    )
    ablate.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="override the workload's baseline compute backend "
        "(default: simulated)",
    )
    ablate.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="override the workload seed (changes every run ID)",
    )
    ablate.add_argument(
        "--list-components", action="store_true",
        help="print the validated component registry and exit",
    )
    return parser


def _run_experiment(
    name: str, preset: str, metrics_out: pathlib.Path | None = None
) -> str:
    driver_name, family = EXPERIMENTS[name]
    driver = getattr(harness, driver_name)
    was_enabled = obs.is_enabled()
    if metrics_out is not None:
        obs.reset()
        obs.enable()
    try:
        if family is None:
            result = driver()
        elif family == "search":
            result = driver(_SEARCH_PRESETS[preset])
        else:
            result = driver(_ACCURACY_PRESETS[preset])
    finally:
        if metrics_out is not None and not was_enabled:
            obs.disable()
    if metrics_out is not None:
        metrics_out.parent.mkdir(parents=True, exist_ok=True)
        metrics_out.write_text(
            json.dumps(obs.to_json(obs.get_registry()), indent=2) + "\n"
        )
    return result.render() if hasattr(result, "render") else result


def _run_demo(
    dataset: str, steps: int, predictor: str, backend: str,
    fault_profile: str | None = None, workers: int | None = None,
    engine: str | None = None,
) -> str:
    if steps <= 0:
        raise SystemExit("--steps must be positive")
    ds = make_dataset(
        dataset, n_sensors=1, n_points=3000, test_points=max(steps, 8)
    )
    history, tail = ds.sensor(0)
    # Serve through PredictionService so an injected fault degrades
    # gracefully (visible in the source column) instead of crashing.
    service = PredictionService(
        config=SMiLerConfig(predictor=predictor),
        backends=make_backend(backend, fault_profile=fault_profile),
        normalize=False,
        service_config=ServiceConfig(max_workers=workers, engine=engine),
    )
    service.register("demo", history.values)
    lines = [f"{dataset.upper()} sensor, SMiLer-{predictor.upper()} "
             f"({backend} backend), {steps} continuous steps",
             "step  prediction   truth     source"]
    try:
        for step in range(steps):
            forecast = service.forecast("demo")
            truth = float(tail[step])
            lines.append(
                f"{step:4d}   {forecast.mean:+8.4f}  {truth:+8.4f}  "
                f"{forecast.source}"
            )
            service.ingest("demo", truth)
    finally:
        service.close()
    return "\n".join(lines)


def _run_stats(
    dataset: str, steps: int, predictor: str, fmt: str, backend: str,
    fault_profile: str | None = None, workers: int | None = None,
    events: int = 10, engine: str | None = None,
) -> str:
    """A short instrumented serving loop: last-request trace + metrics."""
    if steps <= 0:
        raise SystemExit("--steps must be positive")
    ds = make_dataset(
        dataset, n_sensors=1, n_points=1500, test_points=max(steps, 8)
    )
    history, tail = ds.sensor(0)
    was_enabled = obs.is_enabled()
    obs.reset()
    obs.enable()
    try:
        service = PredictionService(
            config=SMiLerConfig(predictor=predictor),
            backends=make_backend(backend, fault_profile=fault_profile),
            min_history=min(256, history.values.size),
            service_config=ServiceConfig(max_workers=workers, engine=engine),
        )
        service.register("demo-sensor", history.values)
        service.forecast("demo-sensor")
        # The first forecast runs the full pipeline (later ones reuse the
        # ingest-time kNN answers), so its trace is the one worth showing.
        trace = service.trace_last_request()
        for step in range(steps):
            service.ingest("demo-sensor", float(tail[step]))
            service.forecast("demo-sensor")
        service.close()  # drains worker-held telemetry on the process engine
    finally:
        if not was_enabled:
            obs.disable()
    lines = [f"== first-request trace ({dataset.upper()}, "
             f"SMiLer-{predictor.upper()}) =="]
    lines.append(obs.format_span_tree(trace))
    lines.append("")
    lines.append("== slo ==")
    snapshot = obs.get_slo_tracker().snapshot()
    for class_, record in snapshot["classes"].items():
        lines.append(
            f"{class_}: attainment {record['attainment']:.3f} over "
            f"{record['window_samples']} samples (objective "
            f"{record['objective_s']:g}s, budget remaining "
            f"{record['error_budget_remaining']:+.2f})"
        )
    if snapshot["served_degraded"]:
        lines.append(
            "served degraded: " + ", ".join(
                f"{rung}={count}"
                for rung, count in sorted(snapshot["served_degraded"].items())
            )
        )
    event_log = obs.get_event_log()
    if events > 0:
        lines.append("")
        lines.append(f"== last {events} events ==")
        tail = event_log.to_jsonl(event_log.tail(events)).rstrip("\n")
        lines.append(tail if tail else "(no events)")
    lines.append("")
    lines.append("== metrics ==")
    if fmt == "json":
        lines.append(json.dumps(service.metrics(), indent=2))
    else:
        lines.append(obs.to_prometheus(obs.get_registry()).rstrip("\n"))
    return "\n".join(lines)


def _run_trace(
    out: pathlib.Path,
    dataset: str,
    sensors: int,
    n_backends: int,
    workers: int,
    steps: int,
    predictor: str,
    backend: str,
    fault_profile: str | None = None,
    metrics_out: pathlib.Path | None = None,
    engine: str | None = None,
) -> str:
    """Instrumented multi-sensor loop → Chrome trace-event export."""
    if steps <= 0:
        raise SystemExit("--steps must be positive")
    if sensors <= 0:
        raise SystemExit("--sensors must be positive")
    if n_backends <= 0:
        raise SystemExit("--backends must be positive")
    ds = make_dataset(
        dataset, n_sensors=sensors, n_points=1200, test_points=max(steps, 8)
    )
    was_enabled = obs.is_enabled()
    obs.reset()
    obs.enable()
    try:
        service = PredictionService(
            config=SMiLerConfig(predictor=predictor),
            backends=[
                make_backend(backend, fault_profile=fault_profile)
                for _ in range(n_backends)
            ],
            min_history=256,
            service_config=ServiceConfig(max_workers=workers, engine=engine),
        )
        tails = {}
        for i in range(sensors):
            history, tail = ds.sensor(i)
            sensor_id = f"{dataset.lower()}-{i:03d}"
            service.register(sensor_id, history.values)
            tails[sensor_id] = tail
        for step in range(steps):
            if step:
                service.ingest_many(
                    {sid: float(t[step - 1]) for sid, t in tails.items()}
                )
            batch = service.forecast_all()
        root = service.trace_last_request()
        service.close()  # drains worker-held telemetry on the process engine
        request_id = str(root.attrs.get("request_id", "")) or None
        obs.write_chrome_trace(
            out, root, event_log=obs.get_event_log(), request_id=request_id
        )
        if metrics_out is not None:
            metrics_out.parent.mkdir(parents=True, exist_ok=True)
            metrics_out.write_text(
                json.dumps(obs.to_json(obs.get_registry()), indent=2) + "\n"
            )
    finally:
        if not was_enabled:
            obs.disable()
    n_lanes = sum(1 for child in root.children if child.name == "lane")
    lines = [
        f"wrote {out}: request {request_id}, {len(batch)} forecasts over "
        f"{n_lanes} lanes ({backend} backend, workers={workers})",
        "open it at https://ui.perfetto.dev or chrome://tracing",
    ]
    if metrics_out is not None:
        lines.append(f"metrics snapshot: {metrics_out}")
    return "\n".join(lines)


def _list_components() -> str:
    from .harness.reporting import render_table

    rows = [
        [
            component.name,
            component.layer,
            "yes" if component.claims_exact else "no",
            ", ".join(f"{k}={v!r}" for k, v in component.patch),
        ]
        for component in ablation.default_registry()
    ]
    return render_table(
        ["component", "layer", "exact", "patch"],
        rows,
        title="Ablatable components (patch = the knobs the off-run flips)",
    )


def _run_ablate(
    out: pathlib.Path,
    backend: str | None = None,
    seed: int | None = None,
) -> str:
    """Run the study, print the ranked report, write the JSON payload."""
    workload = ablation.AblationWorkload()
    overrides: dict[str, object] = {}
    if backend is not None:
        overrides["backend"] = backend
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        workload = dataclasses.replace(workload, **overrides)
    study = ablation.run_study(
        workload, progress=lambda line: print(line, flush=True)
    )
    payload = ablation.bench_payload(study, cpu_count=os.cpu_count())
    if out.parent != pathlib.Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    report = ablation.render_report(study)
    return f"{report}\nwrote {out}"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.command == "run":
        report = _run_experiment(args.experiment, args.preset, args.metrics_out)
        print(report)
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(report + "\n")
        return 0
    if args.command == "run-all":
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for name in sorted(EXPERIMENTS):
            print(f"== {name} ({args.preset}) ==", flush=True)
            metrics_out = None
            if args.metrics:
                metrics_out = args.out_dir / f"{name}_metrics.json"
            report = _run_experiment(name, args.preset, metrics_out)
            print(report)
            (args.out_dir / f"{name}.txt").write_text(report + "\n")
        return 0
    if args.command == "demo":
        print(_run_demo(
            args.dataset, args.steps, args.predictor, args.backend,
            args.fault_profile, args.workers, args.engine,
        ))
        return 0
    if args.command == "stats":
        print(_run_stats(
            args.dataset, args.steps, args.predictor, args.format,
            args.backend, args.fault_profile, args.workers, args.events,
            args.engine,
        ))
        return 0
    if args.command == "trace":
        print(_run_trace(
            args.out, args.dataset, args.sensors, args.backends,
            args.workers, args.steps, args.predictor, args.backend,
            args.fault_profile, args.metrics_out, args.engine,
        ))
        return 0
    if args.command == "ablate":
        if args.list_components:
            print(_list_components())
            return 0
        print(_run_ablate(args.out, args.backend, args.seed))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
