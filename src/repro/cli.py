"""Command-line interface: regenerate any paper table/figure or serve a fleet.

Usage (installed as the ``repro`` package)::

    python -m repro.cli list
    python -m repro.cli run fig8 --preset small
    python -m repro.cli run table3 --preset paper --out results/table3.txt
    python -m repro.cli run fig7 --preset tiny --metrics-out results/fig7_metrics.json
    python -m repro.cli serve --dataset MALL --steps 20
    python -m repro.cli serve --sensors 8 --backends 4 --predictor ar --telemetry prom
    python -m repro.cli ablate --out fresh.json

Presets scale the synthetic workloads: ``tiny`` (seconds, CI-friendly),
``small`` (the benchmark defaults), ``paper`` (hours; closest to the
paper's data sizes).

``serve`` runs the serving loop — ``forecast_all`` then ``ingest_many``
per round over a fleet sharded across ``--backends`` backends — and
prints one line per sensor per round.  Three reporters hang off that one
loop (``docs/observability.md``): ``--telemetry prom|json`` prints the
span tree of the first ``forecast_all`` (the round whose forecast runs
the search), SLO attainment, the tail of the event log and the metrics;
``--trace-out`` writes that request as Chrome trace-event JSON (one
track per lane; open it at https://ui.perfetto.dev); ``--metrics-out``
dumps the registry.  ``--fault-profile`` (a named profile such as
``flaky-kernels``, or a ``key=value`` spec — see ``docs/robustness.md``)
runs the loop under deterministic fault injection, and the source
column shows the degradation ladder serving through it.

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

    serve = sub.add_parser(
        "serve",
        help="serve a sensor fleet: forecast_all -> ingest_many rounds, "
        "with optional telemetry, Chrome-trace and metrics reporters",
    )
    serve.add_argument("--dataset", default="ROAD", help="ROAD, MALL or NET")
    serve.add_argument(
        "--sensors", type=int, default=1, metavar="N",
        help="fleet size (default: 1)",
    )
    serve.add_argument(
        "--backends", type=int, default=1, metavar="N",
        help="backend pool size — one serving lane per backend (default: 1)",
    )
    serve.add_argument(
        "--backend", choices=BACKEND_NAMES, default="simulated",
        help="compute backend: 'simulated' keeps the paper's cost-model "
        "accounting, 'native' is the plain-NumPy fast path",
    )
    serve.add_argument(
        "--fault-profile", default=None, metavar="PROFILE",
        help="wrap every backend in deterministic fault injection: a named "
        f"profile ({', '.join(FAULT_PROFILE_NAMES)}) or a key=value spec "
        "(see docs/robustness.md)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="lane bound of the thread engine (--engine thread; default 1) "
        "— results are bit-identical at any worker count",
    )
    serve.add_argument(
        "--engine", choices=ENGINE_NAMES, default=None,
        help="execution engine (default: REPRO_EXEC, else inline) — "
        "results are bit-identical on every engine",
    )
    serve.add_argument("--steps", type=int, default=5, help="rounds (default: 5)")
    serve.add_argument("--predictor", choices=("gp", "ar"), default="gp")
    serve.add_argument(
        "--telemetry", choices=("prom", "json"), default=None,
        help="print the first forecast_all's span tree, the SLO block, the "
        "last --events event lines and the metrics in this format",
    )
    serve.add_argument(
        "--events", type=int, default=10, metavar="N",
        help="event-log lines --telemetry shows (default: 10)",
    )
    serve.add_argument(
        "--trace-out", type=pathlib.Path, default=None, metavar="PATH",
        help="write the first forecast_all as Chrome trace-event JSON (open "
        "in Perfetto or chrome://tracing)",
    )
    serve.add_argument(
        "--metrics-out", type=pathlib.Path, default=None, metavar="PATH",
        help="dump a JSON metrics snapshot here",
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
        _write_metrics(metrics_out)
    return result.render() if hasattr(result, "render") else result


def _write_metrics(path: pathlib.Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obs.to_json(obs.get_registry()), indent=2) + "\n")


def _run_serve(args: argparse.Namespace) -> str:
    """The one serving loop: ``--steps`` rounds of ``forecast_all`` ->
    ``ingest_many`` over a fleet, one line per sensor per round, then
    whichever reporters were asked for.  Any reporter turns
    :mod:`repro.obs` on for the loop and restores the switch after."""
    for flag in ("steps", "sensors", "backends"):
        if getattr(args, flag) <= 0:
            raise SystemExit(f"--{flag} must be positive")
    ds = make_dataset(
        args.dataset, n_sensors=args.sensors, n_points=1500,
        test_points=max(args.steps, 8),
    )
    reporting = bool(args.telemetry or args.trace_out or args.metrics_out)
    was_enabled = obs.is_enabled()
    if reporting:
        obs.reset()
        obs.enable()
    lines = [
        f"{args.dataset.upper()} fleet: {args.sensors} sensors on "
        f"{args.backends} {args.backend} backend(s), "
        f"SMiLer-{args.predictor.upper()}, {args.steps} rounds",
        "step  sensor    prediction     truth  source",
    ]
    try:
        with PredictionService(
            config=SMiLerConfig(predictor=args.predictor),
            backends=[
                make_backend(args.backend, fault_profile=args.fault_profile)
                for _ in range(args.backends)
            ],
            min_history=256,
            service_config=ServiceConfig(
                max_workers=args.workers, engine=args.engine
            ),
        ) as service:
            fleet = {
                f"{args.dataset.lower()}-{i:03d}": ds.sensor(i)
                for i in range(args.sensors)
            }
            for sid, (history, _) in fleet.items():
                service.register(sid, history.values)
            for step in range(args.steps):
                batch = service.forecast_all()
                if step == 0:
                    # The round whose forecast runs the search (later ones
                    # reuse the ingest-time kNN answers).
                    first = service.trace_last_request()
                truths = {sid: float(tail[step]) for sid, (_, tail) in fleet.items()}
                for sid, truth in truths.items():
                    if sid in batch:
                        mean, source = batch[sid].mean, batch[sid].source
                    else:
                        mean, source = float("nan"), type(batch.errors[sid]).__name__
                    lines.append(
                        f"{step:4d}  {sid}  {mean:+10.4f}  {truth:+8.4f}  {source}"
                    )
                service.ingest_many(truths)
        # Leaving the block closed the service, which drains worker-held
        # telemetry on the process engine.
    finally:
        if reporting and not was_enabled:
            obs.disable()
    if args.telemetry:
        lines += ["", *_telemetry(first, args.telemetry, args.events)]
    if args.trace_out:
        request_id = str(first.attrs.get("request_id", "")) or None
        obs.write_chrome_trace(
            args.trace_out, first, event_log=obs.get_event_log(),
            request_id=request_id,
        )
        n_lanes = sum(1 for child in first.children if child.name == "lane")
        lines += [
            "",
            f"wrote {args.trace_out}: request {request_id} over {n_lanes} "
            "lanes — open it at https://ui.perfetto.dev or chrome://tracing",
        ]
    if args.metrics_out:
        _write_metrics(args.metrics_out)
        lines.append(f"metrics snapshot: {args.metrics_out}")
    return "\n".join(lines)


def _telemetry(trace, fmt: str, events: int) -> list[str]:
    """Span tree, SLO attainment, event-log tail and metrics export."""
    lines = ["== first forecast_all trace ==", obs.format_span_tree(trace)]
    lines += ["", "== slo =="]
    snapshot = obs.get_slo_tracker().snapshot()
    for class_, record in snapshot["classes"].items():
        lines.append(
            f"{class_}: attainment {record['attainment']:.3f} over "
            f"{record['window_samples']} samples (objective "
            f"{record['objective_s']:g}s, budget remaining "
            f"{record['error_budget_remaining']:+.2f})"
        )
    served = obs.served_degraded()
    if served:
        lines.append(
            "served degraded: " + ", ".join(
                f"{rung}={count}" for rung, count in sorted(served.items())
            )
        )
    if events > 0:
        event_log = obs.get_event_log()
        tail = event_log.to_jsonl(event_log.tail(events)).rstrip("\n")
        lines += ["", f"== last {events} events ==", tail or "(no events)"]
    registry = obs.get_registry()
    lines += ["", "== metrics =="]
    if fmt == "json":
        lines.append(json.dumps(obs.to_json(registry), indent=2))
    else:
        lines.append(obs.to_prometheus(registry).rstrip("\n"))
    return lines


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
    if args.command == "serve":
        print(_run_serve(args))
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
