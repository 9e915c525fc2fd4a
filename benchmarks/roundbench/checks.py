"""Output checks and after-the-fact accounting shared by both passes."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.faults import FaultError
from repro.index.reference import suffix_knn_reference

from loop import Driver, RoundRecord, forecast_digest
from workloads import Workload

#: Rounds the process-engine run is replayed inline for the digest check
#: (``run.py`` additionally compares the full digest with fleet-stream's
#: when it runs both workloads).
DIGEST_REPLAY_ROUNDS = 10


def sampled_ids(driver: Driver) -> list[str]:
    """The youngest live sensors: on a churning fleet they are the ones
    still registered when the pass ends."""
    return driver.live_ids[-driver.workload.probe_sensors :]


# ------------------------------------------------------------------ checks
def _retry_search(engine, attempts: int = 20):
    """``engine.search()``; injected kernel faults are transient, so a
    faulted shard is asked again."""
    for attempt in range(attempts):
        try:
            return engine.search()
        except FaultError:
            if attempt == attempts - 1:
                raise


def check_knn(driver: Driver) -> dict:
    """Sampled sensors' current kNN answers equal the full-scan oracle
    start for start and distance for distance."""
    compared, detail = 0, []
    for sid in sampled_ids(driver):
        smiler = driver.service.sensor(sid)
        config = smiler.config
        for d, answer in _retry_search(smiler.engine).items():
            starts, distances = suffix_knn_reference(
                smiler.series, smiler.engine.item_query(d),
                config.k_max, config.rho, margin=config.margin,
            )
            compared += 1
            if not (
                np.array_equal(answer.starts, starts)
                and np.array_equal(answer.distances, distances)
            ):
                detail.append(f"{sid} d={d} differs from the reference scan")
    return {
        "ok": not detail and compared > 0,
        "detail": "; ".join(detail) or f"{compared} answers equal the oracle",
    }


def check_placement(driver: Driver) -> dict:
    """Every live sensor is registered on exactly one shard."""
    service = driver.service
    live = sorted(driver.live_ids)
    problems = []
    if service.sensor_ids != live:
        problems.append("registered ids differ from the live set")
    if sum(service.sensors_per_backend()) != len(live):
        problems.append("per-shard counts do not sum to the live set")
    for sid in live:
        if not 0 <= service.placement_of(sid) < len(service.backends):
            problems.append(f"{sid} has no valid shard")
    return {
        "ok": not problems,
        "detail": "; ".join(problems)
        or f"{len(live)} sensors, each on one of {len(service.backends)} shards",
    }


def check_digest_replay(
    workload: Workload, streams, seed, tmp_dir, digests: list[str]
) -> dict:
    """Replay the first rounds on the inline engine: the process engine
    must have served bit-identical forecasts."""
    inline = Driver(replace(workload, engine="inline"), streams, seed, tmp_dir)
    try:
        inline.setup()
        rounds = min(DIGEST_REPLAY_ROUNDS, len(digests))
        replay = forecast_digest([inline.round() for _ in range(rounds)])
    finally:
        inline.close()
    same = replay == digests[:rounds]
    return {
        "ok": same,
        "detail": f"{rounds} rounds replayed inline: "
        + ("digests equal" if same else "digests DIFFER"),
    }


# -------------------------------------------------------------- accounting
def count_failures(records: list[RoundRecord]) -> tuple[int, int]:
    """(operations attempted, operations failed) over forecasts and
    ingests, one of each per live sensor per round."""
    attempted = failed = 0
    for record in records:
        sensors = len(record.readings)
        attempted += 2 * sensors
        failed += record.errors
        if record.ingest_raised:
            failed += sensors
        for forecast in record.batch.values():
            if not (
                np.isfinite(forecast.mean)
                and np.isfinite(forecast.std)
                and forecast.std > 0.0
            ):
                failed += 1
    return attempted, failed


def accuracy(records: list[RoundRecord]) -> tuple[float, float]:
    """(mae, degraded share) of the h=1 forecasts against the reading
    each round then ingested."""
    errors, degraded, forecasts = [], 0, 0
    for record in records:
        for sid, forecast in record.batch.items():
            forecasts += 1
            degraded += bool(forecast.degraded)
            errors.append(abs(forecast.mean - record.readings[sid]))
    return float(np.mean(errors)), degraded / max(forecasts, 1)
