"""One workload, one pass, in a fresh process (started by ``run.py``).

The untraced pass yields every end-to-end metric with ``repro.obs``
disabled and no spans recorded; the traced pass (``probes.py``) replays
the same generated inputs with spans and yields the per-layer metrics.
The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pathlib
import resource
import shutil
import statistics
import sys
import time

import numpy as np

from catalogue import E2E
from checks import (
    accuracy,
    check_digest_replay,
    check_knn,
    check_placement,
    count_failures,
)
from loop import Driver, RoundRecord, forecast_digest
from hostclock import REFERENCE_MS, HostClock
from spans import percentile_ms, supported_percentile
from workloads import (
    MAX_ROUNDS,
    MIN_ROUNDS,
    WORKLOADS,
    Workload,
    generate,
    smoke_variant,
)

#: Set-ups per run: at least three, and more (up to seven) while they
#: are cheap — a set-up is too short to average the host's mood out, so
#: the quick ones are repeated until two seconds are spent.  ``setup_s``
#: is the median; the last set-up is the one measured.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 7, 2.0
_E2E_UNITS = {m.name: m.unit for m in E2E}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ------------------------------------------------------------ untraced pass
def repeat_setup(workload: Workload, streams, seed, tmp_dir, clock: HostClock):
    """Set up until the repeat rule is met.  Returns the last driver
    (ready to measure) and every set-up's wall, in reference and in raw
    seconds."""

    def yardstick() -> float:
        return statistics.median(clock.sample() for _ in range(3))

    reference_s, raw_s = [], []
    driver = None
    while len(raw_s) < MIN_SETUPS or (
        len(raw_s) < MAX_SETUPS and sum(raw_s) < SETUP_BUDGET_S
    ):
        if driver is not None:
            driver.close()
        before = yardstick()
        driver = Driver(workload, streams, seed, tmp_dir)
        try:
            driver.setup()
        except BaseException:
            driver.close()
            raise
        host_ms = (before + yardstick()) / 2.0
        raw_s.append(driver.setup_s)
        reference_s.append(driver.setup_s * REFERENCE_MS / host_ms)
    return driver, reference_s, raw_s


def measure(driver: Driver, seconds: float, clock: HostClock):
    """The measured phase: rounds (and the maintenance between them)
    until ``seconds`` have passed and the workload's least rounds are
    done.  Returns the records and the simulated seconds the accounting
    prefix cost."""
    workload = driver.workload
    prefix_rounds = min(MIN_ROUNDS, workload.min_rounds)
    records: list[RoundRecord] = []
    sim_start = driver.ledger()["sim_s"]
    sim_prefix = None
    phase_start = time.perf_counter()
    host_before = clock.sample()
    while True:
        record = driver.round()
        records.append(record)
        done = len(records)
        if done == prefix_rounds:
            sim_prefix = driver.ledger()["sim_s"] - sim_start
        cycles = len(driver.op_ns["restore_cycle"])
        t0 = time.perf_counter_ns()
        driver.maintenance(done)
        record.maintenance_ns = time.perf_counter_ns() - t0
        if len(driver.op_ns["restore_cycle"]) > cycles:
            record.restore_ns = driver.op_ns["restore_cycle"][-1]
        host_after = clock.sample()
        record.host_ms = (host_before + host_after) / 2.0
        host_before = host_after
        elapsed = time.perf_counter() - phase_start
        if done >= MAX_ROUNDS or (
            done >= workload.min_rounds and elapsed >= seconds
        ):
            return records, sim_prefix


def timing_metrics(records: list[RoundRecord], scale: np.ndarray) -> dict:
    """The wall metrics of a measured phase; ``scale`` turns each
    round's wall into reference milliseconds (all ones: raw wall)."""
    round_ms = np.array([r.round_ms for r in records]) * scale
    busy_ms = round_ms + np.array([r.maintenance_ns / 1e6 for r in records]) * scale
    restores = [r.restore_ns / 1e6 * k for r, k in zip(records, scale) if r.restore_ns]
    return {
        "round_p50_ms": percentile_ms(round_ms, 50),
        "round_p90_ms": percentile_ms(round_ms, 90),
        "forecast_p50_ms": percentile_ms(
            np.array([r.forecast_ns / 1e6 for r in records]) * scale, 50
        ),
        "ingest_p50_ms": percentile_ms(
            np.array([r.ingest_ns / 1e6 for r in records]) * scale, 50
        ),
        "sensor_ticks_per_s": sum(len(r.readings) for r in records)
        / (float(busy_ms.sum()) / 1e3),
        "restore_p50_ms": statistics.median(restores) if restores else None,
    }


def run_untraced(workload: Workload, seed: int, seconds: float, tmp_dir) -> dict:
    streams = generate(workload, seed)
    clock = HostClock()
    driver, setups, raw_setups = repeat_setup(
        workload, streams, seed, tmp_dir, clock
    )
    try:
        gc.collect()
        gc.freeze()
        records, sim_prefix = measure(driver, seconds, clock)
        checks = {"knn_equals_reference": check_knn(driver)}
        if workload.churn_every:
            checks["one_shard_per_sensor"] = check_placement(driver)
    finally:
        driver.close()
    # Read before the inline replay below adds its own allocations.
    rss_mb = peak_rss_mb()

    prefix = records[: min(MIN_ROUNDS, workload.min_rounds)]
    digests = forecast_digest(prefix)
    if workload.engine == "process":
        checks["digest_equals_inline"] = check_digest_replay(
            workload, streams, seed, tmp_dir, digests
        )
    attempted, failed = count_failures(records)
    checks["forecasts_finite_std_positive"] = {
        "ok": failed == 0,
        "detail": f"{failed} of {attempted} operations failed",
    }
    mae, degraded_share = accuracy(prefix)

    # Wall -> reference milliseconds, round by round (see hostclock.py).
    scale = np.array([REFERENCE_MS / r.host_ms for r in records])
    values = {
        "setup_s": statistics.median(setups),
        **timing_metrics(records, scale),
        "mae": mae,
        "index_kb_per_sensor": driver.index_bytes / workload.sensors / 1024.0,
        "peak_rss_mb": rss_mb,
        "failed_share": failed / attempted,
        "degraded_share": degraded_share,
        "sim_s_per_round": (
            sim_prefix / len(prefix) if workload.backend == "simulated" else None
        ),
    }
    return {
        "rounds": len(records),
        "supported_percentile": supported_percentile(len(records)),
        "setup_repeats": len(setups),
        "restore_cycles": sum(bool(r.restore_ns) for r in records),
        "host_speed": float(np.median(scale)),
        "raw_wall": {
            "setup_s": statistics.median(raw_setups),
            **timing_metrics(records, np.ones(len(records))),
        },
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "digest_rounds": len(digests),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in _E2E_UNITS.items()
        },
    }


# --------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke_variant(workload)
    out_dir = args.out.parent
    tmp_dir = out_dir / f"tmp-{args.out.stem}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from probes import run_traced

            result = run_traced(workload, args.seed, out_dir, tmp_dir)
        else:
            result = run_untraced(workload, args.seed, args.seconds, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    result.update(
        workload=args.workload, seed=args.seed, trace=bool(args.trace),
        smoke=args.smoke,
    )
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
