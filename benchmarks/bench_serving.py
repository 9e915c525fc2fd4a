"""Serving-layer benchmark: latency/throughput across worker-lane counts.

Not a pytest benchmark — run it directly::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py \
        --backend native --sensors 64 --workers-list 1,2,4,8

For every worker count it builds an *identical* service (same seeded
histories, same backend shards), drives warm-up plus measured rounds of
``forecast_all`` + ``ingest_many``, and writes ``BENCH_serving.json``
with:

* wall-clock p50/p99 per-batch latency and forecast throughput,
* wall speedup vs the sequential (workers=1) run,
* the **simulated** fleet numbers: per-backend simulated seconds, their
  sum (serial device time) and max (fleet-parallel device time) — the
  deterministic speedup the cost model predicts for a real multi-device
  fleet, independent of host core count,
* a bit-identical cross-check: every worker count must serve the exact
  Forecasts of the sequential run (the concurrency contract pinned by
  ``tests/test_concurrency.py``).

Wall-clock numbers are hardware-dependent — Python threads only overlap
NumPy kernel time (the GIL serialises the rest), so single-core hosts
show speedups near 1.0 while the simulated fleet numbers stay the same
everywhere.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.backend import make_backend  # noqa: E402
from repro.core import SMiLerConfig  # noqa: E402
from repro.exec import ENGINE_NAMES  # noqa: E402
from repro.service import PredictionService, ServiceConfig  # noqa: E402

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1, 3),
    predictor="ar",
)


def make_workload(n_sensors: int, n_points: int, n_future: int):
    rng = np.random.default_rng(42)
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


def build_service(backend_name: str, n_backends: int, workers: int,
                  engine: str | None):
    backends = [make_backend(backend_name) for _ in range(n_backends)]
    if engine is None and workers > 1:
        engine = "thread"  # the lane-count sweep is a thread-engine sweep
    return PredictionService(
        CONFIG,
        backends=backends,
        min_history=100,
        service_config=ServiceConfig(max_workers=workers, engine=engine),
    )


def run_one(backend_name, n_backends, workers, histories, futures,
            warmup, rounds, engine=None):
    service = build_service(backend_name, n_backends, workers, engine)
    engine_name = service.status()["engine"]
    for sensor_id, history in histories.items():
        service.register(sensor_id, history)
    step = 0
    for _ in range(warmup):
        service.forecast_all()
        service.ingest_many(
            {sid: float(futures[sid][step]) for sid in histories}
        )
        step += 1
    # Engine-aware: the process engine must forward the reset to its
    # live workers, not just zero the parent's backend copies.
    service.reset_time()
    latencies, batches = [], []
    t_start = time.perf_counter()
    for _ in range(rounds):
        t0 = time.perf_counter()
        batch = service.forecast_all()
        latencies.append(time.perf_counter() - t0)
        batches.append(dict(batch))
        service.ingest_many(
            {sid: float(futures[sid][step]) for sid in histories}
        )
        step += 1
    wall_total = time.perf_counter() - t_start
    # Flush worker state back to the parent before reading the ledgers.
    service.close()
    sim_seconds = [backend.elapsed_s for backend in service.backends]
    latencies = np.asarray(latencies)
    return {
        "workers": workers,
        "engine": engine_name,
        "p50_batch_s": float(np.percentile(latencies, 50)),
        "p99_batch_s": float(np.percentile(latencies, 99)),
        "throughput_forecasts_per_s": float(
            rounds * len(histories) / wall_total
        ),
        "wall_total_s": float(wall_total),
        "sim_backend_seconds": [float(s) for s in sim_seconds],
        "sim_serial_s": float(sum(sim_seconds)),
        "sim_parallel_s": float(max(sim_seconds)),
        "sim_parallel_speedup": (
            float(sum(sim_seconds) / max(sim_seconds))
            if max(sim_seconds) > 0 else 1.0
        ),
    }, batches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="simulated",
                        help="compute backend kind (default: simulated)")
    parser.add_argument("--sensors", type=int, default=48)
    parser.add_argument("--backends", type=int, default=4,
                        help="shards in the pool (default: 4)")
    parser.add_argument("--history", type=int, default=280)
    parser.add_argument("--workers-list", default="1,2,4,8",
                        help="comma-separated lane counts (default: 1,2,4,8)")
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument(
        "--engine", choices=ENGINE_NAMES, default=None,
        help="execution engine for every run (default: the service's own "
        "default at 1 worker, thread lanes above)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_serving.json",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: 8 sensors, 2 rounds, workers 1 and 4 "
        "(overrides --sensors/--rounds/--workers-list)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.sensors = 8
        args.rounds = 2
        args.workers_list = "1,4"
    workers_list = [int(w) for w in args.workers_list.split(",")]

    cpu_count = os.cpu_count()
    print(f"host cpu_count={cpu_count} "
          f"(wall speedups need cpu_count > workers to mean anything)")
    histories, futures = make_workload(
        args.sensors, args.history, args.warmup + args.rounds
    )
    results, reference_batches = [], None
    for workers in workers_list:
        result, batches = run_one(
            args.backend, args.backends, workers, histories, futures,
            args.warmup, args.rounds, engine=args.engine,
        )
        if reference_batches is None:
            reference_batches = batches
            result["identical_to_sequential"] = True
        else:
            result["identical_to_sequential"] = batches == reference_batches
        baseline = results[0]["wall_total_s"] if results else result["wall_total_s"]
        result["wall_speedup_vs_sequential"] = float(
            baseline / result["wall_total_s"]
        )
        # Wall speedup only measures lane overlap when there are spare
        # host cores to overlap on; flag the number as noise otherwise
        # (the simulated fleet numbers are host-independent either way).
        meaningful = cpu_count is not None and cpu_count > workers
        result["wall_speedup_meaningful"] = meaningful
        if workers > 1 and not meaningful:
            print(
                f"WARNING: cpu_count={cpu_count} <= workers={workers}; "
                "wall_speedup_vs_sequential is not meaningful on this host "
                "— read sim_parallel_speedup instead",
                file=sys.stderr,
            )
        results.append(result)
        print(
            f"workers={workers} engine={result['engine']}: "
            f"p50={result['p50_batch_s'] * 1e3:.1f}ms "
            f"p99={result['p99_batch_s'] * 1e3:.1f}ms "
            f"throughput={result['throughput_forecasts_per_s']:.0f}/s "
            f"wall-speedup={result['wall_speedup_vs_sequential']:.2f}x "
            f"sim-parallel-speedup={result['sim_parallel_speedup']:.2f}x "
            f"identical={result['identical_to_sequential']}"
        )
        if not result["identical_to_sequential"]:
            print("ERROR: concurrent batch diverged from sequential",
                  file=sys.stderr)
            return 1

    payload = {
        "benchmark": "serving",
        "config": {
            "backend": args.backend,
            "sensors": args.sensors,
            "backends": args.backends,
            "history_points": args.history,
            "warmup_rounds": args.warmup,
            "measured_rounds": args.rounds,
            "engine": args.engine,
        },
        "host": {"cpu_count": os.cpu_count()},
        "results": results,
    }
    canonical = (
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_serving.json"
    )
    noise = [
        r["workers"] for r in results
        if r["workers"] > 1 and not r["wall_speedup_meaningful"]
    ]
    if args.out.resolve() == canonical and noise:
        print(
            f"ERROR: refusing to publish {canonical.name}: wall speedups "
            f"for workers={noise} are noise on this host "
            f"(cpu_count={cpu_count}).  Re-run on a host with more cores, "
            "or write elsewhere with --out for a local look.",
            file=sys.stderr,
        )
        return 1
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
