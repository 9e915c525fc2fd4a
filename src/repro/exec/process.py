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
normalised forecast rows cross back as JSON lists (JSON round-trips
every finite float exactly) and the parent builds the forecasts, so they
are bit-identical to the inline engine's.

*Authority.*  While a generation of workers is live, each worker's copy
of its shard is authoritative and the parent's is stale.  Everything
that needs the parent's view current — ``sensor()`` / ``status()`` /
``snapshot()`` / ``register()`` / ``restore()`` / ``evacuate()`` /
``close()`` — quiesces first: each worker drains its telemetry, ships
its shard state back in one pickle (preserving the ``smiler.backend is
pool.backends[i]`` identity), unlinks its shared memory and exits; the
next batch re-forks.  Workers run with failover disabled, so placements
never change while a generation is live and the parent's placement
table always routes a lane — a whole shard's batch or a single
``forecast()`` / ``ingest()`` op, one command either way — to the right
worker.  A single op rides a live generation but never forks one.

*Crash semantics.*  Every sensor's (normalised) series lives in a
``multiprocessing.shared_memory`` block whose committed length the
worker advances only at batch boundaries (see :mod:`repro.exec.shm`).
If a worker dies or hangs (``ServiceConfig.engine_timeout_s``), the
parent marks the shard's backend unhealthy, flushes the survivors,
rebuilds the dead shard's sensors from their committed series onto
healthy backends (the evacuation path: ensemble auto-tuning state is
rebuilt fresh) and replays the dead lane's ops in-process, where the
degradation ladder applies as usual.  A crashed batch — or a single op
sent to a dead worker — is therefore served, degraded and not
bit-identical, instead of hanging.

Wire protocol: JSON command frames (:mod:`repro.exec.wire`); the single
pickled frame is the shard-state transfer on FLUSH, sent by our own
worker from a quiesced state.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import os
import pickle
import signal
import threading
import time
import weakref
from contextlib import contextmanager
from typing import TYPE_CHECKING

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
from .shm import SharedSeriesArena, read_committed_series, unlink_block
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
    """Parent-side handle on one live shard worker."""

    process: multiprocessing.process.BaseProcess
    conn: "Connection"
    backend_index: int
    sensor_ids: tuple[str, ...]
    shm: dict  # sensor_id -> {"name", "capacity"}
    pid: int


def _context_to_wire(context: reqctx.RequestContext) -> dict:
    return {
        "request_id": context.request_id,
        "entry_point": context.entry_point,
        "started_s": context.started_s,
    }


def _context_from_wire(record: dict) -> reqctx.RequestContext:
    return reqctx.RequestContext(
        request_id=record["request_id"],
        entry_point=record["entry_point"],
        started_s=record["started_s"],
    )


def _finalize_generation(state: dict) -> None:
    """GC/exit backstop: reap worker processes and unlink shared memory.

    ``state`` is a plain mutable container (never the service or engine,
    which would defeat the weakref) kept current by the engine.
    """
    for process in state["processes"]:
        if process.is_alive():
            process.terminate()
    for process in state["processes"]:
        process.join(timeout=1.0)
        if process.is_alive():  # pragma: no cover - stuck in a syscall
            process.kill()
            process.join(timeout=1.0)
    for name in state["shm_names"]:
        unlink_block(name)
    state["processes"] = []
    state["shm_names"] = []


class ProcessShardEngine(ExecutionEngine):
    """One worker process per backend shard, shared-memory durability."""

    name = "process"

    def __init__(self, service: "PredictionService") -> None:
        super().__init__(service)
        #: Serializes batches and lifecycle against each other.
        #: Lock order: this lock is always taken *before* the service's
        #: admission lock, never after (see ``PredictionService.__init__``).
        self._op_lock = threading.RLock()
        self._workers: dict[int, _Worker] = {}
        self._cleanup_state: dict = {"processes": [], "shm_names": []}
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

            return _run_lanes(self, entry_point, scope, tasks, workers=1)

        enabled = obs.is_enabled()
        submit_s = time.perf_counter()
        context = _context_to_wire(scope.context)
        with root_span(entry_point) as root:
            if root is not None:
                root.attrs["request_id"] = scope.request_id
                root.attrs["n_lanes"] = len(tasks)
                root.attrs["workers"] = len(tasks)
            lost: dict[int, _Worker] = {}  # by backend index
            for task in tasks:
                worker = self._workers[task.plan.backend_index]
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
                    replies.append(self._await_reply(worker))
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
                self._apply_reply(worker, reply)
                if reply.get("health_open"):
                    evacuate_after.append(task.plan.backend_index)
                span_record = reply.get("lane_span")
                lane_spans.append(
                    None if span_record is None else Span.from_dict(span_record)
                )
                if reply.get("lane_error") is not None and lane_error is None:
                    lane_error = error_from_wire(reply["lane_error"])
                lane_outcomes.append(self._decode_outcomes(reply["outcomes"]))

            if lost:
                # Recovery re-places the dead shards' sensors; the lost
                # lanes then replay in-process, where the ladder serves
                # what shared memory preserved.  They run on this thread,
                # so their spans nest under the open root by themselves.
                self._handle_lost(list(lost.values()))
                for i, (task, reply) in enumerate(zip(tasks, replies)):
                    if reply is None:
                        lane_outcomes[i], _ = run_lane(
                            service, entry_point, task, scope.context,
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
                    sensor_ids=plan.sensor_ids, shm={},
                    pid=process.pid,
                )
                forked.append(worker)
                worker.shm = dict(self._await_reply(worker)["shm"])
        except (_WorkerLost, OSError) as error:
            # Reap every process this attempt forked, the one that never
            # answered too, and free every block a started worker
            # reported: the arena untracks its blocks, so nothing else
            # would before reboot.
            for worker in forked:
                worker.process.kill()
                worker.process.join(timeout=5.0)
                worker.conn.close()
                for block in worker.shm.values():
                    unlink_block(block["name"])
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
        the survivors, rebuild dead shards from committed shared memory."""
        for worker in lost:
            self._workers.pop(worker.backend_index, None)
        self._quiesce()  # survivors flush gracefully
        for worker in lost:
            self._recover_dead_shard(worker)
        self._sync_cleanup_state()

    def _recover_dead_shard(self, worker: _Worker) -> None:
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
                block = worker.shm.get(sensor_id)
                series = (
                    read_committed_series(block["name"])
                    if block is not None else None
                )
                stale = service._sensors.get(sensor_id)
                if series is None or series.size == 0 or stale is None:
                    continue
                recovered += service._readmit(
                    sensor_id, series.size,
                    lambda backend, s=series, c=stale.config, i=sensor_id:
                    SMiLer(s, c, backend=backend, sensor_id=i),
                )
        obs.observe_evacuation(worker.backend_index, recovered)
        logger.warning(
            "shard worker for backend %d lost; rebuilt %d/%d sensors from "
            "committed shared memory",
            worker.backend_index, recovered, len(worker.sensor_ids),
        )

    # ------------------------------------------------------------- plumbing
    def _await_bytes(self, worker: _Worker) -> bytes:
        timeout_s = self.service.service_config.engine_timeout_s
        deadline = time.monotonic() + timeout_s
        conn = worker.conn
        while True:
            try:
                if conn.poll(0.05):
                    return conn.recv_bytes()
            except (EOFError, OSError) as error:
                raise _WorkerLost(
                    f"shard worker for backend {worker.backend_index} "
                    f"(pid {worker.pid}) closed its channel"
                ) from error
            if not worker.process.is_alive():
                try:
                    if conn.poll(0):  # drain a reply sent just before death
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

    def _await_reply(self, worker: _Worker) -> dict:
        import json

        try:
            return json.loads(self._await_bytes(worker).decode("utf-8"))
        except ValueError as error:
            raise _WorkerLost(
                f"shard worker for backend {worker.backend_index} sent a "
                f"malformed frame"
            ) from error

    def _apply_reply(self, worker: _Worker, reply: dict) -> None:
        service = self.service
        obs.absorb(reply["telemetry"])
        health = reply.get("health")
        if health:
            service._pool.adopt_health(worker.backend_index, health)
        elapsed = reply.get("elapsed")
        if elapsed:
            # Mirror the worker's clock onto the parent's stale copy, so
            # ``pool.elapsed_s`` / benchmarks read true fleet time
            # between batches without a flush.
            service._pool.backends[worker.backend_index].set_elapsed(
                elapsed["elapsed_s"], elapsed["injected_s"]
            )
        for sensor_id, block in (reply.get("shm") or {}).items():
            worker.shm[sensor_id] = block
        if reply.get("shm"):
            self._sync_cleanup_state()

    @staticmethod
    def _decode_outcomes(wire_outcomes: list) -> list:
        """Undo :func:`_wire_outcomes`: ``None``, a row, or an error."""
        return [
            wire if wire is None
            else tuple(wire) if isinstance(wire, list)
            else error_from_wire(wire)
            for wire in wire_outcomes
        ]

    def _sync_cleanup_state(self) -> None:
        state = self._cleanup_state
        state["processes"] = [w.process for w in self._workers.values()]
        state["shm_names"] = [
            block["name"]
            for w in self._workers.values() for block in w.shm.values()
        ]


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
    _rearm_after_fork(service)
    service.resilience = dataclasses.replace(
        service.resilience, failover=False
    )
    from .local import InlineEngine

    service._engine = InlineEngine(service)
    service._last_trace = None  # from here on: this worker's single-op traces
    arena = SharedSeriesArena()
    shm_info = {}
    for sensor_id in sensor_ids:
        index = service._sensors[sensor_id].engine.window_index
        shm_info[sensor_id] = arena.share(sensor_id, index)
    send_json(conn, {"op": "ready", "pid": os.getpid(), "shm": shm_info})
    try:
        while True:
            try:
                msg = recv_json(conn)
            except (EOFError, OSError):
                # Parent gone (or gave up on us after recovering from
                # shared memory): nobody will read our blocks now.
                arena.unlink_all()
                return
            op = msg["op"]
            if op == "batch":
                _worker_batch(conn, service, arena, backend_index, msg)
            elif op == "reset_time":
                service.backends[backend_index].reset_time()
                send_json(conn, {"op": "ok"})
            elif op == "flush":
                _worker_flush(conn, service, arena, backend_index, sensor_ids)
                return
            else:  # pragma: no cover - protocol error
                send_json(conn, {"op": "error", "message": f"unknown {op!r}"})
    finally:
        conn.close()


def _sync_enabled(enabled: bool) -> None:
    if enabled:
        obs.enable()
    else:
        obs.disable()


def _shard_status(service, backend_index) -> dict:
    backend = service.backends[backend_index]
    return {
        "telemetry": obs.drain(),
        "health": service._pool.health_dict(backend_index),
        "elapsed": {
            "elapsed_s": float(backend.elapsed_s),
            "injected_s": float(getattr(backend, "injected_s", 0.0)),
        },
        "health_open": service._pool.state(backend_index) == "open",
    }


def _wire_outcomes(outcomes: list) -> list:
    """A lane's outcomes as JSON: ``None`` for an applied reading, a
    ``[z_mean, z_variance, source]`` list for a served forecast, an
    error record for a failed one."""
    return [
        error_to_wire(outcome) if isinstance(outcome, Exception) else outcome
        for outcome in outcomes
    ]


def _worker_batch(conn, service, arena, backend_index, msg):
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
        outcomes, lane_sp = run_lane(
            service, msg["entry_point"], task,
            _context_from_wire(msg["context"]), msg["submit_s"],
            detached=True, attrs={"worker_pid": os.getpid()},
        )
    except Exception as error:  # noqa: BLE001 - shipped to parent
        lane_error = error
    if lane_sp is None:
        # No lane frame: a single forecast left its own span here.
        lane_sp, service._last_trace = service._last_trace, None
    shm_changes = {}
    for sensor_id in task.plan.sensor_ids:  # only these can have advanced
        block = arena.commit(
            sensor_id, service._sensors[sensor_id].engine.window_index
        )
        if block is not None:
            shm_changes[sensor_id] = block
    send_json(conn, {
        "op": "lane",
        "outcomes": _wire_outcomes(outcomes),
        "lane_error": None if lane_error is None else error_to_wire(lane_error),
        "lane_span": None if lane_sp is None else lane_sp.as_dict(),
        "shm": shm_changes,
        **_shard_status(service, backend_index),
    })


def _worker_flush(conn, service, arena, backend_index, sensor_ids):
    """FLUSH: commit, drain, ship shard state in one pickle, clean up.

    One pickle for (sensors, backend, health) so shared references
    survive: every shipped ``smiler.backend`` is the shipped backend
    object, and the parent's ``pool.backends[i]`` identity holds after
    adoption.
    """
    for sensor_id in sensor_ids:
        if sensor_id in arena:
            arena.commit(
                sensor_id, service._sensors[sensor_id].engine.window_index
            )
    shard_sensors = {
        sensor_id: service._sensors[sensor_id] for sensor_id in sensor_ids
    }
    backend = service.backends[backend_index]
    health = service._pool.health_dict(backend_index)
    send_json(conn, {"op": "flushed", "telemetry": obs.drain()})
    conn.send_bytes(pickle.dumps((shard_sensors, backend, health)))
    arena.unlink_all()
