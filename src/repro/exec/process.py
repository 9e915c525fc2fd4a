"""Process-per-shard execution engine.

One long-lived worker process per backend shard, each owning its
shard's :class:`~repro.core.smiler.SMiLer` state, forked lazily on the
first batch after construction or after any fleet mutation.  The hot
NumPy path (DTW verification, GP solves) then runs with no GIL
contention at all, which is what the thread engine cannot deliver on
CPU-bound simulated backends.

Correctness model
-----------------
*Bit identity.*  Each worker executes exactly its lane's op stream, in
op order, through the same lane runner and interpreter
(:func:`repro.exec.base.run_lane` / ``execute_ops``) the inline engine
uses — so every backend's kernel sequence, simulated-time ledger and
fault-injection tick stream is identical to a sequential run.  A lane's
normalised forecast rows cross back as raw float64 bytes and the parent
builds the forecasts, so they are bit-identical to the inline engine's.

*Authority.*  While a generation of workers is live, each worker's copy
of its shard is authoritative and the parent's is stale — its backends'
clocks too: simulated time, launches and injected latency reach the
parent only at the flush.  The parent's stale copy is left untouched
until then: with the readings sent since the fork it is what a dead
worker's shard is rebuilt from.  Everything that needs the parent's
view current — ``sensor()`` / ``status()`` / ``placement_of()`` /
``snapshot()`` / ``register()`` / ``restore()`` / ``evacuate()`` /
``close()`` — quiesces first: each worker drains its telemetry, ships
its shard state back in one pickle (preserving the ``smiler.backend is
pool.backends[i]`` identity) and exits; the next batch re-forks with a
fresh record.  Workers run with failover disabled, so placements never
change while a generation is live and the parent's placement table
always routes a lane — a whole shard's batch or a single
``forecast()`` / ``ingest()`` op, one command either way — to the right
worker.  A single op rides a live generation but never forks one.

*Crash semantics.*  A sensor's index and predictors are functions of
its series, so a series is all a dead worker's shard needs back, and
every point it gained since the fork passed through the parent.  The
parent keeps, per live worker, the normalised readings it sent each
hosted sensor (its :class:`~repro.timeseries.ZNormStats`, the one
normalisation the lane applies) and each sensor's series length as of
the worker's last reply: every reply carries its lane's lengths, so the
reply is the commit.  If a worker dies or hangs
(``ServiceConfig.engine_timeout_s``), the parent marks the shard's
backend unhealthy, flushes the survivors, rebuilds each dead-shard
sensor from its own copy of the series (untouched while the generation
lived) plus the readings sent since, cut at the acknowledged length,
onto healthy backends (the evacuation path: ensemble auto-tuning state
is rebuilt fresh) and replays the dead lane's ops in-process, where the
degradation ladder applies as usual.  Nothing acknowledged is lost, and
a batch that got no reply counts as not applied, so its replay applies
it exactly once.  A crashed batch — or a single op sent to a dead
worker — is therefore served, degraded and not bit-identical, instead
of hanging.

Wire protocol: JSON command frames (:mod:`repro.exec.wire`).  A batch
reply is a JSON envelope — the lane's outcomes (``None``, a forecast's
``source`` or an error record), its error and span, its sensors' series
lengths, one :func:`repro.obs.drain` delta and the backend's breaker
record; no clock, and no count the delta already holds — then a row
frame: the served rows' ``z_mean, z_variance`` as float64, in op order.
A frame that does not match the sources is a lost worker, as a
malformed envelope is.  The single pickled frame is the shard-state
transfer on FLUSH, sent by our own worker from a quiesced state.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import logging
import multiprocessing
import os
import pickle
import select
import signal
import threading
import time
import weakref
from array import array
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from ..obs import context as reqctx
from ..obs import hooks as obs
from ..obs.tracing import Span
from .base import (
    SINGLE_ENTRY_POINTS,
    ExecutionEngine,
    LanePlan,
    LaneTask,
    root_span,
    run_lane,
)
from .wire import error_from_wire, error_to_wire, recv_json, send_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> exec)
    from multiprocessing.connection import Connection

    from ..service import PredictionService

__all__ = ["ProcessShardEngine"]

logger = logging.getLogger(__name__)


class _WorkerLost(RuntimeError):
    """A shard worker died or exceeded ``engine_timeout_s``."""


@dataclasses.dataclass
class _Worker:
    """Parent-side handle on one live shard worker, and the record its
    shard is rebuilt from if it dies: per hosted sensor, the normalised
    readings sent to it since the fork (``sent``) and its series length
    as of the worker's last reply (``acked``)."""

    process: multiprocessing.process.BaseProcess
    conn: "Connection"
    backend_index: int
    sensor_ids: tuple[str, ...]
    pid: int
    acked: dict[str, int] = dataclasses.field(init=False, default_factory=dict)
    sent: dict[str, array] = dataclasses.field(init=False)
    poller: select.poll = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        # float64 like the series: a reading costs the record 8 bytes.
        self.sent = {sensor_id: array("d") for sensor_id in self.sensor_ids}
        self.poller = select.poll()
        self.poller.register(self.conn, select.POLLIN)


def _finalize_generation(processes: list) -> None:
    """GC/exit backstop: reap worker processes.

    ``processes`` is a plain list (never the service or engine, which
    would defeat the weakref) the engine keeps current.
    """
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=1.0)
        if process.is_alive():  # pragma: no cover - stuck in a syscall
            process.kill()
            process.join(timeout=1.0)
    processes.clear()


class ProcessShardEngine(ExecutionEngine):
    """One worker process per backend shard; the parent's record of what
    it sent each worker is the crash-recovery source."""

    name = "process"

    def __init__(self, service: "PredictionService") -> None:
        super().__init__(service)
        #: Serializes batches and lifecycle against each other.
        #: Lock order: this lock is always taken *before* the service's
        #: admission lock, never after (see ``PredictionService.__init__``).
        self._op_lock = threading.RLock()
        self._workers: dict[int, _Worker] = {}
        self._cleanup_state: list = []  # the live workers' processes
        weakref.finalize(service, _finalize_generation, self._cleanup_state)

    # ------------------------------------------------------------ lifecycle
    def mutating(self):
        @contextmanager
        def _mutating():
            with self._op_lock:
                self._quiesce()
                yield

        return _mutating()

    def refresh(self) -> None:
        with self._op_lock:
            self._quiesce()

    def close(self) -> None:
        with self._op_lock:
            self._quiesce()

    def reset_time(self) -> None:
        with self._op_lock:
            lost = []
            for index in sorted(self._workers):
                worker = self._workers[index]
                try:
                    send_json(worker.conn, {"op": "reset_time"})
                    self._await_reply(worker)
                except (_WorkerLost, OSError, BrokenPipeError):
                    lost.append(worker)
            if lost:
                self._handle_lost(lost)
            # Parent copies (and workerless backends) zero locally; live
            # workers replace these wholesale at the next flush anyway.
            self.service._pool.reset_time()

    def worker_pids(self) -> dict[int, int]:
        """Live worker pids by backend index (test/diagnostic hook)."""
        with self._op_lock:
            return {i: w.pid for i, w in sorted(self._workers.items())}

    # ------------------------------------------------------------- batches
    def run_batch(self, entry_point, scope, tasks):
        with self._op_lock:
            return self._run_batch_locked(entry_point, scope, tasks)

    def _run_batch_locked(self, entry_point, scope, tasks):
        service = self.service
        framed = entry_point not in SINGLE_ENTRY_POINTS
        if framed:
            # A single op is served by a live generation (placements are
            # frozen while one lives, so its shard has a worker) but
            # never forks one.
            self._ensure_generation()
        if not self._workers:
            # Nothing hosted (or nothing forked): the inline path is
            # definitionally identical.
            from .local import _run_lanes

            return _run_lanes(
                self, entry_point, scope, [[task] for task in tasks], workers=1
            )

        enabled = obs.is_enabled()
        submit_s = time.perf_counter()
        context = dict(vars(scope.context))
        with root_span(entry_point) as root:
            if root is not None:
                root.attrs["request_id"] = scope.request_id
                root.attrs["n_lanes"] = len(tasks)
                root.attrs["workers"] = len(tasks)
            lost: dict[int, _Worker] = {}  # by backend index
            for task in tasks:
                worker = self._workers[task.plan.backend_index]
                for kind, sensor_id, value in task.ops:
                    if kind == "ingest":
                        worker.sent[sensor_id].append(
                            service._norms[sensor_id].apply(value)
                        )
                try:
                    send_json(worker.conn, {
                        "op": "batch",
                        "entry_point": entry_point,
                        "enabled": enabled,
                        "context": context,
                        "submit_s": submit_s,
                        "lane_index": task.plan.lane_index,
                        "sensor_ids": list(task.plan.sensor_ids),
                        "ops": [list(op) for op in task.ops],
                    })
                except OSError:  # worker already dead: its pipe is closed
                    lost[worker.backend_index] = worker
            replies: list[dict | None] = []
            for task in tasks:
                worker = self._workers[task.plan.backend_index]
                if worker.backend_index in lost:
                    replies.append(None)
                    continue
                try:
                    replies.append(self._await_reply(worker, rows=True))
                except _WorkerLost:
                    replies.append(None)
                    lost[worker.backend_index] = worker

            lane_outcomes: list[list] = []
            lane_spans: list[Span | None] = []
            lane_error: BaseException | None = None
            evacuate_after: list[int] = []
            for task, reply in zip(tasks, replies):
                if reply is None:
                    lane_outcomes.append(None)  # replayed below
                    lane_spans.append(None)
                    continue
                worker = self._workers[task.plan.backend_index]
                self._apply_reply(worker, task, reply)
                if reply["health"]["state"] == "open":
                    evacuate_after.append(task.plan.backend_index)
                span_record = reply.get("lane_span")
                lane_spans.append(
                    None if span_record is None else Span.from_dict(span_record)
                )
                if reply.get("lane_error") is not None and lane_error is None:
                    lane_error = error_from_wire(reply["lane_error"])
                lane_outcomes.append(reply["outcomes"])

            if lost:
                # Recovery re-places the dead shards' sensors as of
                # their last reply; the lost lanes then replay
                # in-process, where the ladder serves them.  They run on
                # this thread, so their spans nest under the open root by
                # themselves.
                self._handle_lost(list(lost.values()))
                for i, (task, reply) in enumerate(zip(tasks, replies)):
                    if reply is None:
                        [lane_outcomes[i]], _ = run_lane(
                            service, entry_point, [task], scope.context,
                            submit_s, attrs={"replayed_after_crash": True},
                        )

            if root is not None:
                for span in lane_spans:
                    if span is not None:
                        root.adopt(span)
        if root is not None:
            service._last_trace = root
        elif not framed and lane_spans[0] is not None:
            # A worker-served single forecast ships its own span back.
            service._last_trace = lane_spans[0]

        # A breaker a worker tripped is acted on at the batch boundary:
        # workers never fail over (placements must stay stable while the
        # generation lives), so the parent quiesces and evacuates here,
        # where moving sensors is safe (re-entrant: evacuate quiesces first).
        for index in evacuate_after:
            service._fail_over(index)

        if lane_error is not None:
            raise lane_error
        return lane_outcomes

    # ----------------------------------------------------------- generation
    def _ensure_generation(self) -> None:
        """Fork one worker per hosting backend (no-op while one lives)."""
        if self._workers:
            return
        from ..core.scaleout import plan_lanes

        service = self.service
        with service._admission_lock:
            placements = {
                sid: placement.backend_index
                for sid, placement in service._placements.items()
            }
        if not placements:
            return
        ctx = multiprocessing.get_context("fork")
        forked: list[_Worker] = []
        try:
            for plan in plan_lanes(placements, sorted(placements)):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, plan.backend_index,
                          plan.sensor_ids, service),
                    name=f"smiler-shard-{plan.backend_index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                worker = _Worker(
                    process=process, conn=parent_conn,
                    backend_index=plan.backend_index,
                    sensor_ids=plan.sensor_ids, pid=process.pid,
                )
                forked.append(worker)
                worker.acked.update(zip(
                    plan.sensor_ids, self._await_reply(worker)["lengths"]
                ))
        except (_WorkerLost, OSError) as error:
            # Reap every process this attempt forked, the one that never
            # answered too.
            for worker in forked:
                worker.process.kill()
                worker.process.join(timeout=5.0)
                worker.conn.close()
            raise RuntimeError(
                "process engine failed to start shard workers"
            ) from error
        self._workers = {worker.backend_index: worker for worker in forked}
        self._sync_cleanup_state()
        logger.debug(
            "process engine: forked %d shard workers (pids %s)",
            len(forked), sorted(worker.pid for worker in forked),
        )

    def _quiesce(self) -> None:
        """Flush every worker, adopt shard state, retire the generation."""
        if not self._workers:
            return
        service = self.service
        lost: list[_Worker] = []
        workers = self._workers
        self._workers = {}
        for index in sorted(workers):
            worker = workers[index]
            try:
                send_json(worker.conn, {"op": "flush"})
                header = self._await_reply(worker)
                payload = pickle.loads(self._await_bytes(worker))
            except (_WorkerLost, OSError, BrokenPipeError):
                lost.append(worker)
                continue
            obs.absorb(header["telemetry"])
            shard_sensors, backend, health = payload
            service._sensors.update(shard_sensors)
            service._pool.backends[index] = backend
            service._pool.adopt_health(index, health)
            worker.conn.close()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - stuck exit
                worker.process.kill()
                worker.process.join(timeout=5.0)
        for worker in lost:
            self._recover_dead_shard(worker)
        self._sync_cleanup_state()

    def _handle_lost(self, lost: list[_Worker]) -> None:
        """Retire the generation after worker loss: reap the dead, flush
        the survivors, rebuild dead shards from the parent's record."""
        for worker in lost:
            self._workers.pop(worker.backend_index, None)
        self._quiesce()  # survivors flush gracefully
        for worker in lost:
            self._recover_dead_shard(worker)
        self._sync_cleanup_state()

    def _recover_dead_shard(self, worker: _Worker) -> None:
        """Rebuild a dead worker's sensors from the parent's copy of each
        series, the readings sent since the fork, cut at the length the
        worker last acknowledged."""
        from ..core.smiler import SMiLer

        service = self.service
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        service._pool.mark_unhealthy(worker.backend_index)
        recovered = 0
        with service._admission_lock:
            for sensor_id in worker.sensor_ids:
                stale = service._sensors[sensor_id]
                series = np.concatenate(
                    [stale.series, worker.sent[sensor_id]]
                )[: worker.acked[sensor_id]]
                recovered += service._readmit(
                    sensor_id, series.size,
                    lambda backend, s=series, c=stale.config, i=sensor_id:
                    SMiLer(s, c, backend=backend, sensor_id=i),
                )
        obs.observe_evacuation(worker.backend_index, recovered)
        logger.warning(
            "shard worker for backend %d lost; rebuilt %d/%d sensors from "
            "their acknowledged readings",
            worker.backend_index, recovered, len(worker.sensor_ids),
        )

    # ------------------------------------------------------------- plumbing
    def _await_bytes(self, worker: _Worker) -> bytes:
        timeout_s = self.service.service_config.engine_timeout_s
        deadline = time.monotonic() + timeout_s
        conn = worker.conn
        while True:
            try:
                if worker.poller.poll(50):
                    return conn.recv_bytes()
            except (EOFError, OSError) as error:
                raise _WorkerLost(
                    f"shard worker for backend {worker.backend_index} "
                    f"(pid {worker.pid}) closed its channel"
                ) from error
            if not worker.process.is_alive():
                try:
                    if worker.poller.poll(0):  # a reply sent just before death
                        return conn.recv_bytes()
                except (EOFError, OSError):
                    pass
                raise _WorkerLost(
                    f"shard worker for backend {worker.backend_index} "
                    f"(pid {worker.pid}) died"
                )
            if time.monotonic() > deadline:
                raise _WorkerLost(
                    f"shard worker for backend {worker.backend_index} "
                    f"(pid {worker.pid}) unresponsive after {timeout_s}s"
                )

    def _await_reply(self, worker: _Worker, rows: bool = False) -> dict:
        """One JSON reply; with ``rows``, a lane reply whose row frame
        follows it, decoded into the lane's outcomes."""
        try:
            reply = json.loads(self._await_bytes(worker).decode("utf-8"))
            if rows:
                reply["outcomes"] = _decode_outcomes(
                    reply["outcomes"], self._await_bytes(worker)
                )
            return reply
        except ValueError as error:
            raise _WorkerLost(
                f"shard worker for backend {worker.backend_index} sent a "
                f"malformed frame"
            ) from error

    def _apply_reply(
        self, worker: _Worker, task: LaneTask, reply: dict
    ) -> None:
        obs.absorb(reply["telemetry"])
        self.service._pool.adopt_health(worker.backend_index, reply["health"])
        worker.acked.update(zip(task.plan.sensor_ids, reply["lengths"]))
        if reply["lane_error"] is not None:
            # A lane that failed partway applied only what its lengths
            # say: the readings it did not apply leave the record (the
            # parent's copy still has its length at the fork).
            sensors = self.service._sensors
            for sensor_id in task.plan.sensor_ids:
                del worker.sent[sensor_id][
                    worker.acked[sensor_id] - sensors[sensor_id].now :
                ]

    def _sync_cleanup_state(self) -> None:
        self._cleanup_state[:] = [w.process for w in self._workers.values()]


# ----------------------------------------------------------------- worker
def _rearm_after_fork(service) -> None:
    """Replace every lock and telemetry sink the child inherited.

    ``fork`` copies locks in whatever state some *other* parent thread
    held them — a child that ever acquired one would deadlock.  The
    worker therefore gets fresh locks on the pool, the backends and the
    admission path, and fresh telemetry sinks (``obs.fork_reset``).
    """
    obs.fork_reset()
    service._admission_lock = threading.RLock()
    service._pool._lock = threading.RLock()
    for backend in service._pool.backends:
        backend.rearm_lock()


def _worker_main(conn, backend_index, sensor_ids, service) -> None:
    """Shard worker entry point (runs in the forked child).

    The child's copy-on-write service still references *every* shard;
    this worker only ever executes and ships ``sensor_ids`` — its own
    backend's sensors — and runs with failover disabled so placements
    stay frozen for the generation.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        # Woken by its command, a SCHED_BATCH worker does not preempt the
        # parent still sending the others theirs: every lane starts at once.
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):
        pass
    _rearm_after_fork(service)
    # The forked heap (the service, its shards' indexes) lives as long as
    # the worker: out of the collector's sight, a collection triggered by
    # a lane's allocations does not walk it, so obs-on spans time the
    # lane rather than the collector.  No collection first: it would walk
    # that heap once per start (and copy its pages), for what little
    # garbage the fork carried.
    gc.freeze()
    service._failover = False
    from .local import InlineEngine

    service._engine = InlineEngine(service)
    service._last_trace = None  # from here on: this worker's single-op traces
    send_json(conn, {
        "op": "ready", "pid": os.getpid(),
        "lengths": _series_lengths(service, sensor_ids),
    })
    try:
        while True:
            try:
                msg = recv_json(conn)
            except (EOFError, OSError):  # parent gone, or gave up on us
                return
            op = msg["op"]
            if op == "batch":
                _worker_batch(conn, service, backend_index, msg)
            elif op == "reset_time":
                service.backends[backend_index].reset_time()
                send_json(conn, {"op": "ok"})
            elif op == "flush":
                _worker_flush(conn, service, backend_index, sensor_ids)
                return
            else:  # pragma: no cover - protocol error
                send_json(conn, {"op": "error", "message": f"unknown {op!r}"})
    finally:
        conn.close()


def _series_lengths(service, sensor_ids) -> list[int]:
    """What a reply commits: each sensor's series length, in order."""
    return [service._sensors[sensor_id].now for sensor_id in sensor_ids]


def _sync_enabled(enabled: bool) -> None:
    if enabled:
        obs.enable()
    else:
        obs.disable()


def _wire_outcomes(outcomes: list) -> tuple[list, bytes]:
    """A lane's outcomes as a JSON list and a row frame: ``None`` for an
    applied reading, the ``source`` for a served forecast (its ``z_mean,
    z_variance`` go to the float64 frame, in op order), an error record
    for a failed one."""
    wire, values = [], []
    for outcome in outcomes:
        if isinstance(outcome, tuple):
            values += outcome[:2]
            wire.append(outcome[2])
        else:
            wire.append(None if outcome is None else error_to_wire(outcome))
    return wire, np.array(values, dtype=np.float64).tobytes()


def _decode_outcomes(wire_outcomes: list, frame: bytes) -> list:
    """Undo :func:`_wire_outcomes`: ``None``, a row, or an error.  A
    frame that does not hold two floats per source is a ``ValueError``."""
    values = np.frombuffer(frame, dtype=np.float64).tolist()
    sources = sum(isinstance(wire, str) for wire in wire_outcomes)
    if len(values) != 2 * sources:
        raise ValueError(f"row frame: {len(values)} floats, {sources} rows")
    pairs = zip(values[::2], values[1::2])
    return [
        wire if wire is None
        else (*next(pairs), wire) if isinstance(wire, str)
        else error_from_wire(wire)
        for wire in wire_outcomes
    ]


def _worker_batch(conn, service, backend_index, msg):
    _sync_enabled(msg["enabled"])
    task = LaneTask(
        plan=LanePlan(
            lane_index=msg["lane_index"], backend_index=backend_index,
            sensor_ids=tuple(msg["sensor_ids"]),
        ),
        ops=tuple(tuple(op) for op in msg["ops"]),
    )
    lane_error: BaseException | None = None
    outcomes: list = []
    lane_sp = None
    try:
        [outcomes], lane_sp = run_lane(
            service, msg["entry_point"], [task],
            reqctx.RequestContext(**msg["context"]), msg["submit_s"],
            detached=True, attrs={"worker_pid": os.getpid()},
        )
    except Exception as error:  # noqa: BLE001 - shipped to parent
        lane_error = error
    if lane_sp is None:
        # No lane frame: a single forecast left its own span here.
        lane_sp, service._last_trace = service._last_trace, None
    wire, frame = _wire_outcomes(outcomes)
    send_json(conn, {
        "op": "lane",
        "outcomes": wire,
        "lane_error": None if lane_error is None else error_to_wire(lane_error),
        "lane_span": None if lane_sp is None else lane_sp.as_dict(),
        "lengths": _series_lengths(service, task.plan.sensor_ids),
        "telemetry": obs.drain(),
        "health": service._pool.health_dict(backend_index),
    })
    conn.send_bytes(frame)


def _worker_flush(conn, service, backend_index, sensor_ids):
    """FLUSH: drain, ship shard state in one pickle.

    One pickle for (sensors, backend, health) so shared references
    survive: every shipped ``smiler.backend`` is the shipped backend
    object, and the parent's ``pool.backends[i]`` identity holds after
    adoption.
    """
    shard_sensors = {
        sensor_id: service._sensors[sensor_id] for sensor_id in sensor_ids
    }
    backend = service.backends[backend_index]
    health = service._pool.health_dict(backend_index)
    send_json(conn, {"op": "flushed", "telemetry": obs.drain()})
    conn.send_bytes(pickle.dumps((shard_sensors, backend, health)))
