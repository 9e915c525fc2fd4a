"""In-process engines: the sequential path and thread-pool lanes.

Both run the shared lane runner (:func:`repro.exec.base.run_lane`) on
the serving process; they differ in *where* each lane runs and in what
a lane is.  The thread engine runs one lane per backend shard; the
inline engine runs one lane per kernel domain
(:func:`repro.backend.base.kernel_domain`), so the shards of unwrapped
native backends serve as one stacked group while a simulated or
fault-injecting shard stays a lane of its own.  The telemetry shape:
one root span adopting one ``lane`` child per lane, connected across
worker threads.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from ..backend.base import kernel_domain
from ..obs import context as reqctx
from .base import ExecutionEngine, LaneTask, root_span, run_lane

__all__ = ["InlineEngine", "ThreadLaneEngine"]


class InlineEngine(ExecutionEngine):
    """Every lane on the calling thread — the exact sequential path, one
    lane per kernel domain.

    Native kernels are pure functions with no clock and no fault
    stream, so a second native lane would buy nothing but the fixed
    per-layer cost again: the tasks of one domain run as one
    :func:`run_lane`, their sensors searched, stepped and predicted as
    one group, and the outcomes split back per task.  Each backend's op
    order is unchanged, so every answer is bit-identical to the other
    engines'.
    """

    name = "inline"

    def run_batch(self, entry_point, scope, tasks):
        backends = self.service.backends
        domains = [kernel_domain(backends[task.plan.backend_index]) for task in tasks]
        if tasks and domains.count(domains[0]) == len(tasks):  # one lane, in order
            return _run_lanes(self, entry_point, scope, [tasks], workers=1)
        lanes: dict[object, list[LaneTask]] = {}
        for task, domain in zip(tasks, domains):
            lanes.setdefault(domain, []).append(task)
        grouped = list(lanes.values())
        outcomes = dict(zip(
            (task.plan.lane_index for lane in grouped for task in lane),
            _run_lanes(self, entry_point, scope, grouped, workers=1),
        ))
        return [outcomes[task.plan.lane_index] for task in tasks]


class ThreadLaneEngine(ExecutionEngine):
    """One thread-pool lane per backend shard.

    Lanes overlap wherever NumPy drops the GIL; per-backend op order —
    and therefore every numeric result — is identical to
    :class:`InlineEngine` because each backend's whole op stream stays
    on exactly one lane.  ``max_workers`` (from
    :class:`~repro.service.ServiceConfig`) bounds the pool; a single
    lane or a single worker runs the lanes one after another.
    """

    name = "thread"

    def run_batch(self, entry_point, scope, tasks):
        return _run_lanes(
            self, entry_point, scope, [[task] for task in tasks],
            workers=self.service.max_workers,
        )


def _run_lanes(
    engine: ExecutionEngine,
    name: str,
    scope: reqctx.RequestScope,
    lanes: list[list[LaneTask]],
    workers: int,
) -> list[list]:
    """Run every lane under one root span; returns per-task outcomes, in
    the order ``lanes`` lists the tasks.

    The telemetry contract: one request yields one *connected* trace
    tree.  Sequentially, each ``lane`` span nests under the root via the
    tracer's thread-local stack.  Concurrently, each lane opens a
    *detached* span rooted on its own thread; the root adopts the
    completed lane spans after the join, in lane order, so tree assembly
    is race-free and deterministic.  A single op has no root to open —
    the op's own span is the trace.
    """
    service = engine.service
    submit_s = time.perf_counter()
    concurrent = len(lanes) > 1 and workers > 1

    def lane(tasks: list[LaneTask]):
        return run_lane(
            service, name, tasks, scope.context, submit_s, detached=concurrent
        )

    with root_span(name) as root:
        if root is not None:
            root.attrs["request_id"] = scope.request_id
            root.attrs["n_lanes"] = len(lanes)
            root.attrs["workers"] = (
                min(workers, len(lanes)) if concurrent else 1
            )
        if not concurrent:
            outputs = [lane(tasks) for tasks in lanes]
        else:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(lanes)),
                thread_name_prefix=f"smiler-{name}",
            ) as executor:
                # list() drains the iterator so lane exceptions propagate.
                outputs = list(executor.map(lane, lanes))
            if root is not None:
                for _, lane_sp in outputs:
                    if lane_sp is not None:
                        root.adopt(lane_sp)
    if root is not None:
        service._last_trace = root
    return [outcomes for per_task, _ in outputs for outcomes in per_task]
