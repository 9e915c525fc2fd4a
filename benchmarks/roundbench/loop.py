"""The closed loop: one caller, one round at a time.

A round is ``forecast_all()`` then ``ingest_many()``; the next round
starts when the previous one returns.  :class:`Driver` owns the service
under test, the set of live sensors and the global tick, and times every
call it makes into the service's public API.  With a
:class:`~spans.Tracer` attached the same timestamps are also recorded as
spans.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro import PredictionService, ServiceConfig, SMiLerConfig
from repro.backend import make_backend

from workloads import WARMUP_ROUNDS, Workload, sensor_id

__all__ = ["Driver", "RoundRecord", "forecast_digest", "worker_count"]


def worker_count() -> int:
    return min(2, os.cpu_count() or 1)


@dataclass
class RoundRecord:
    """Everything one round produced, kept for after-the-fact accounting
    so the measured phase does no arithmetic between rounds."""

    batch: dict
    errors: int
    readings: dict[str, float]
    forecast_ns: int
    ingest_ns: int
    ingest_raised: bool
    #: Filled in by the measured phase: the yardstick kernel's wall
    #: beside this round (``hostclock.py``), the maintenance that
    #: followed it, and the restore cycle among that maintenance, if any.
    host_ms: float = 0.0
    maintenance_ns: int = 0
    restore_ns: int = 0

    @property
    def round_ms(self) -> float:
        return (self.forecast_ns + self.ingest_ns) / 1e6


def forecast_digest(records: list[RoundRecord]) -> list[str]:
    """Per-round sha256 over the sensor-sorted ``.hex()`` of every
    forecast's mean and std — equal digests mean bit-identical floats."""
    digests = []
    for record in records:
        h = hashlib.sha256()
        for sid in sorted(record.batch):
            forecast = record.batch[sid]
            h.update(
                f"{sid}:{float(forecast.mean).hex()}:"
                f"{float(forecast.std).hex()};".encode()
            )
        digests.append(h.hexdigest())
    return digests


@dataclass
class Driver:
    workload: Workload
    streams: np.ndarray
    seed: int
    tmp_dir: pathlib.Path
    tracer: object | None = None

    service: PredictionService | None = None
    #: Stream indices of the live sensors, oldest first.
    live: list[int] = field(default_factory=list)
    #: Readings ingested so far (the global clock of every stream).
    tick: int = 0
    generation: int = 0
    setup_s: float = 0.0
    index_bytes: int = 0
    snapshot_bytes_per_sensor: float = 0.0
    #: Wall of every timed call, by span name.
    op_ns: dict[str, list[int]] = field(
        default_factory=lambda: defaultdict(list)
    )
    _next_stream: int = 0
    #: Stream index -> tick at which the sensor was registered.
    joined: dict[int, int] = field(default_factory=dict)
    warmup_records: list = field(default_factory=list)
    #: Ledgers of services already closed by a restore cycle.
    _retired: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )

    # ------------------------------------------------------------ plumbing
    def _timed(self, name: str, fn, *args):
        t0 = time.perf_counter_ns()
        out = fn(*args)
        t1 = time.perf_counter_ns()
        self.op_ns[name].append(t1 - t0)
        if self.tracer is not None:
            self.tracer.add(name, t0, t1)
        return out

    def _new_service(self) -> PredictionService:
        w = self.workload
        backends = []
        for shard in range(w.shards):
            profile = None
            if w.fault_profile:
                # One stream per (seed, service generation, shard), so
                # shards never fail in lockstep and a run repeats exactly.
                fault_seed = self.seed * 1000 + self.generation * 10 + shard
                profile = f"{w.fault_profile},seed={fault_seed}"
            backends.append(make_backend(w.backend, fault_profile=profile))
        workers = worker_count() if w.engine != "inline" else 1
        return PredictionService(
            SMiLerConfig(**w.config),
            backends=backends,
            min_history=100,
            service_config=ServiceConfig(max_workers=workers, engine=w.engine),
        )

    def _register(self, stream: int) -> None:
        """Register a sensor whose history ends at the current tick."""
        self.joined[stream] = self.tick
        self._timed(
            "service.register", self.service.register,
            sensor_id(stream), self.history_of(stream),
        )

    def history_of(self, stream: int) -> np.ndarray:
        """The raw history the sensor was (or is being) registered with."""
        start = self.joined[stream]
        return self.streams[stream, start : start + self.workload.history]

    @property
    def live_ids(self) -> list[str]:
        return [sensor_id(stream) for stream in self.live]

    # --------------------------------------------------------------- set-up
    def setup(self) -> None:
        """Build the service, register every sensor, drive the warm-up
        rounds; the wall of all of it is ``setup_s``."""
        t0 = time.perf_counter()
        self.service = self._new_service()
        self.live = list(range(self.workload.sensors))
        self._next_stream = self.workload.sensors
        for stream in self.live:
            self._register(stream)
        self.index_bytes = sum(
            self.service.sensor(sid).memory_bytes() for sid in self.live_ids
        )
        self.warmup_records = [self.round() for _ in range(WARMUP_ROUNDS)]
        self.setup_s = time.perf_counter() - t0

    # ---------------------------------------------------------------- round
    def round(self, between=None) -> RoundRecord:
        """One round; ``between`` (if given) runs untimed after
        ``forecast_all`` returns and before ``ingest_many`` starts."""
        column = self.workload.history + self.tick
        readings = {
            sensor_id(stream): float(self.streams[stream, column])
            for stream in self.live
        }
        service = self.service
        raised = False
        t0 = time.perf_counter_ns()
        batch = service.forecast_all()
        t1 = time.perf_counter_ns()
        if between is not None:
            between()
        t2 = time.perf_counter_ns()
        try:
            service.ingest_many(readings)
        except Exception:  # noqa: BLE001 - counted as failed operations
            raised = True
        t3 = time.perf_counter_ns()
        self.tick += 1
        if self.tracer is not None:
            self.tracer.add("service.forecast_all", t0, t1)
            self.tracer.add("service.ingest_many", t2, t3)
        return RoundRecord(
            batch=dict(batch), errors=len(batch.errors), readings=readings,
            forecast_ns=t1 - t0, ingest_ns=t3 - t2, ingest_raised=raised,
        )

    # ---------------------------------------------------------- maintenance
    def maintenance(self, rounds_done: int) -> None:
        """Churn and restore cycles due after measured round
        ``rounds_done`` (1-based); a no-op on workloads with neither."""
        w = self.workload
        if w.churn_every and rounds_done % w.churn_every == 0:
            self.churn()
        if w.restore_every and rounds_done % w.restore_every == 0:
            self.restore_cycle()

    def churn(self) -> None:
        """Deregister the oldest sensor, register a fresh one whose
        history ends at the current tick."""
        oldest = self.live.pop(0)
        self._timed(
            "service.deregister", self.service.deregister, sensor_id(oldest)
        )
        fresh = self._next_stream
        self._next_stream += 1
        self._register(fresh)
        self.live.append(fresh)

    def restore_cycle(self) -> None:
        """snapshot -> close -> new service -> restore -> continue."""
        directory = self.tmp_dir / f"snap-{self.generation}"
        t0 = time.perf_counter_ns()
        self._timed("persistence.snapshot", self.service.snapshot, directory)
        self._retire()
        self.generation += 1
        self.service = self._new_service()
        self._timed("persistence.restore", self.service.restore, directory)
        self.op_ns["restore_cycle"].append(time.perf_counter_ns() - t0)
        size = sum(p.stat().st_size for p in directory.iterdir())
        self.snapshot_bytes_per_sensor = size / max(len(self.live), 1)
        shutil.rmtree(directory)

    # -------------------------------------------------------------- ledgers
    def ledger(self) -> dict[str, float]:
        """Cumulative accounting the backends publish, across every
        service generation: simulated seconds, kernel launches, faults
        injected.  Cheap enough to read between rounds."""
        totals = defaultdict(float, self._retired)
        for backend in self.service.backends:
            totals["sim_s"] += backend.elapsed_s
            cost = getattr(backend, "cost", None)
            totals["launches"] += cost.launches if cost is not None else 0
            totals["injected"] += sum(getattr(backend, "injected", {}).values())
        return totals

    def health(self) -> dict[str, float]:
        """Breaker accounting from ``status()`` (syncs off-process state,
        so never call it inside a timed region)."""
        totals = defaultdict(float)
        for key in ("failures", "trips"):
            totals[key] = self._retired[key]
        for backend in self.service.status()["backends"]:
            totals["failures"] += backend["health"]["failures_total"]
            totals["trips"] += backend["health"]["trips"]
        return totals

    def _retire(self) -> None:
        health = self.health()
        self.service.close()
        self._retired = defaultdict(float, self.ledger())
        self._retired.update(health)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
