"""The :class:`ExecutionEngine` contract, the op interpreter and the
lane runner every engine shares.

An engine has **one** execution method, :meth:`ExecutionEngine.run_batch`.
It receives *lane tasks*: one per backend shard, each carrying a
:class:`LanePlan` (which backend, which sensors, in which order) and a
flat tuple of declarative operations.  Ops are plain tuples so they can
cross a process boundary without pickling::

    ("forecast", sensor_id, horizon)
    ("ingest",   sensor_id, value)

A single-sensor ``forecast()`` / ``ingest()`` is the same thing with one
lane holding one op — there is no second dispatch path.

The engine must execute every lane's ops **in order** — that per-backend
op order is the whole bit-identical concurrency contract (each backend's
kernel stream, simulated-time ledger and fault-injection tick sequence
depend only on it) — and return one outcome per op::

    (z_mean, z_variance, source)   # forecast served: a normalised row
    Exception                      # forecast failed; lands in batch.errors
    None                           # reading applied

A lane never sees a request's ``level`` or a sensor's normalisation: the
service turns rows into raw-scale forecasts once, at its boundary.

Wherever a lane executes — the calling thread, a pool thread, a shard
worker process, or the parent replaying a crashed worker's lane — it
executes through :func:`run_lane`, which owns the lane telemetry (the
``lane`` span and its attrs, queue-wait/execute attribution via
:func:`repro.obs.hooks.observe_lane`).  Engines own only the request
root span that adopts the lane spans, and point
``service._last_trace`` at the connected tree.  A request named in
:data:`SINGLE_ENTRY_POINTS` is one op served as itself: no root or
``lane`` frame, no lane metrics — a forecast op's own span is the trace.
"""

from __future__ import annotations

import abc
import contextlib
import itertools
import os
import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..obs import context as reqctx
from ..obs import hooks as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> exec)
    from ..obs.tracing import Span
    from ..service import PredictionService

__all__ = [
    "ENGINE_ENV_VAR",
    "ENGINE_NAMES",
    "ExecutionEngine",
    "LanePlan",
    "LaneTask",
    "SINGLE_ENTRY_POINTS",
    "execute_ops",
    "make_engine",
    "resolve_engine_name",
    "root_span",
    "run_lane",
]

#: Environment variable selecting the engine when
#: :attr:`~repro.service.ServiceConfig.engine` is unset.
ENGINE_ENV_VAR = "REPRO_EXEC"

#: Engine names accepted by config / environment / ``--engine``.
ENGINE_NAMES = ("inline", "thread", "process")

#: Entry points whose request is one op served as itself (the op names
#: of :func:`execute_ops`).  Their telemetry is the op's own: no root or
#: ``lane`` span frame and no lane metrics, and the process engine
#: serves them on a live worker generation but never forks one for them.
SINGLE_ENTRY_POINTS = ("forecast", "ingest")


@dataclass(frozen=True)
class LanePlan:
    """One backend shard's slice of a batch: an engine-consumable view
    of the pool's placement snapshot (see
    :func:`repro.core.scaleout.plan_lanes`)."""

    lane_index: int
    backend_index: int
    sensor_ids: tuple[str, ...]


@dataclass(frozen=True)
class LaneTask:
    """A lane plan plus the ops to run on it, in execution order."""

    plan: LanePlan
    ops: tuple[tuple, ...]


def execute_ops(service: "PredictionService", ops: Sequence[tuple]) -> list:
    """Interpret one lane's op stream against a service, in order.

    This is the one interpreter every op funnels through — batch or
    single; inline and thread lanes run it on the serving process, the
    process engine runs it inside each shard's worker — so op semantics
    (what a ``forecast`` op catches, what an ``ingest`` op propagates)
    cannot drift between engines or entry points.  A run of consecutive
    ops of one kind — a shard's slice of ``forecast_all`` /
    ``ingest_many``, or the one op of ``forecast()`` / ``ingest()`` — is
    handed to the service as one lane (``_forecast_lane`` /
    ``_observe_lane``).
    """
    outcomes: list = []
    for kind, run in itertools.groupby(ops, key=lambda op: op[0]):
        if kind == "forecast":
            # A run of forecast ops is one lane too: served stacked,
            # group by group, each op's failure its own outcome.
            outcomes.extend(service._forecast_lane(list(run)))
        elif kind == "ingest":
            # A run of ingest ops is one lane of readings: absorbed and
            # searched as a group.  Validation happened at the service
            # entry point and backend failures are absorbed by the
            # resilience path, so only genuinely unexpected errors
            # propagate (failing the lane).
            readings = [(sensor_id, value) for _, sensor_id, value in run]
            service._observe_lane(readings)
            outcomes.extend([None] * len(readings))
        else:  # pragma: no cover - programming error
            raise ValueError(f"unknown lane op {kind!r}")
    return outcomes


def root_span(entry_point: str):
    """Context manager for a request's root span: ``None`` for a single
    op (its own span is the trace) or with observability off."""
    if entry_point in SINGLE_ENTRY_POINTS:
        return contextlib.nullcontext()
    return obs.span(entry_point)


def run_lane(
    service: "PredictionService",
    entry_point: str,
    task: LaneTask,
    context: reqctx.RequestContext,
    submit_s: float,
    detached: bool = False,
    attrs: Mapping[str, object] | None = None,
) -> tuple[list, "Span | None"]:
    """Run one lane's ops on the current thread; returns ``(outcomes,
    lane span)``.

    The one lane runner: it re-binds the request's context (pool threads
    and worker processes inherit neither it nor the span stack), opens
    the ``lane`` span, stamps the attrs and records queue-wait (submit →
    lane start) vs execute time.  ``detached`` roots the span on this
    thread for the request root to adopt after the join — a lane that
    runs anywhere but nested under the root on the calling thread;
    ``attrs`` are the caller's extra span attrs (``worker_pid``,
    ``replayed_after_crash``).  A single op
    (:data:`SINGLE_ENTRY_POINTS`) runs unframed and returns no span.
    """
    queue_wait_s = time.perf_counter() - submit_s
    plan = task.plan
    with reqctx.adopt(context):
        if entry_point in SINGLE_ENTRY_POINTS:
            return execute_ops(service, task.ops), None
        span_cm = obs.detached_span("lane") if detached else obs.span("lane")
        with span_cm as lane_sp:
            if lane_sp is not None:
                backend = service.backends[plan.backend_index]
                lane_sp.attrs["lane"] = plan.lane_index
                lane_sp.attrs["backend"] = plan.backend_index
                lane_sp.attrs["backend_id"] = getattr(
                    backend, "backend_id", f"backend-{plan.backend_index}"
                )
                lane_sp.attrs["queue_wait_s"] = queue_wait_s
                lane_sp.attrs["n_sensors"] = len(plan.sensor_ids)
                lane_sp.attrs["request_id"] = context.request_id
                lane_sp.attrs.update(attrs or {})
            t_exec = time.perf_counter()
            outcomes = execute_ops(service, task.ops)
        obs.observe_lane(
            plan.lane_index, plan.backend_index, queue_wait_s,
            time.perf_counter() - t_exec, len(plan.sensor_ids),
        )
    return outcomes, lane_sp


class ExecutionEngine(abc.ABC):
    """Strategy object owning how a service's lanes actually execute."""

    #: Engine name as selected by config / ``REPRO_EXEC`` / ``--engine``.
    name: str = "abstract"

    def __init__(self, service: "PredictionService") -> None:
        # Weak: service -> engine is strong, and a strong back-reference
        # would leave every dropped service — histories, indexes and all
        # — allocated until the cyclic collector happens to run.
        self._service_ref = weakref.ref(service)

    @property
    def service(self) -> "PredictionService":
        service = self._service_ref()
        if service is None:  # pragma: no cover - engine outlived service
            raise RuntimeError("the owning PredictionService no longer exists")
        return service

    @abc.abstractmethod
    def run_batch(
        self,
        entry_point: str,
        scope: reqctx.RequestScope,
        tasks: list[LaneTask],
    ) -> list[list]:
        """Run every lane's ops through :func:`run_lane`; return per-lane
        outcome lists, in lane order.  Must execute each lane's ops in
        op order and leave ``service._last_trace`` pointing at the
        request's root span when observability is enabled."""

    def mutating(self):
        """Context manager the service enters around any fleet-membership
        mutation (register / deregister / restore / evacuate / snapshot).
        Engines that replicate state elsewhere use it to reclaim
        authority first; local engines need nothing."""
        return contextlib.nullcontext()

    def refresh(self) -> None:
        """Make the service's in-process view of sensor state current
        (no-op for engines that never move state off-process)."""

    def reset_time(self) -> None:
        """Zero every backend's simulated-time ledger, wherever the
        authoritative backend objects currently live."""
        for backend in self.service.backends:
            backend.reset_time()

    def close(self) -> None:
        """Release engine resources (shard worker processes).  The
        service remains usable; a later batch may restart workers."""


def resolve_engine_name(explicit: str | None) -> str:
    """Engine selection: explicit config beats ``REPRO_EXEC`` beats
    ``"inline"``."""
    origin, value = "engine=", explicit
    if value is None:
        origin = ENGINE_ENV_VAR
        value = os.environ.get(ENGINE_ENV_VAR, "").strip()
        if not value:
            return "inline"
    if value not in ENGINE_NAMES:
        raise ValueError(
            f"unknown execution engine {value!r} (from {origin}); "
            f"available: {ENGINE_NAMES}"
        )
    return value


def make_engine(name: str, service: "PredictionService") -> ExecutionEngine:
    """Construct an engine by resolved name."""
    from .local import InlineEngine, ThreadLaneEngine
    from .process import ProcessShardEngine

    if name == "inline":
        return InlineEngine(service)
    if name == "thread":
        return ThreadLaneEngine(service)
    if name == "process":
        return ProcessShardEngine(service)
    raise ValueError(
        f"unknown execution engine {name!r}; available: {ENGINE_NAMES}"
    )
