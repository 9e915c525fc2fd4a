"""In-process engines: the sequential path and thread-pool lanes.

Both run the shared lane runner (:func:`repro.exec.base.run_lane`) on
the serving process; they differ only in *where* each lane runs.  The
telemetry shape: one root span adopting one ``lane`` child per shard,
connected across worker threads.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from ..obs import context as reqctx
from .base import ExecutionEngine, LaneTask, root_span, run_lane

__all__ = ["InlineEngine", "ThreadLaneEngine"]


class InlineEngine(ExecutionEngine):
    """Every lane on the calling thread — the exact sequential path."""

    name = "inline"

    def run_batch(self, entry_point, scope, tasks):
        return _run_lanes(self, entry_point, scope, tasks, workers=1)


class ThreadLaneEngine(ExecutionEngine):
    """One thread-pool lane per backend shard.

    Lanes overlap wherever NumPy drops the GIL; per-backend op order —
    and therefore every numeric result — is identical to
    :class:`InlineEngine` because each backend's whole op stream stays
    on exactly one lane.  ``max_workers`` (from
    :class:`~repro.service.ServiceConfig`) bounds the pool; a single
    lane or a single worker degenerates to the inline path.
    """

    name = "thread"

    def run_batch(self, entry_point, scope, tasks):
        return _run_lanes(
            self, entry_point, scope, tasks,
            workers=self.service.max_workers,
        )


def _run_lanes(
    engine: ExecutionEngine,
    name: str,
    scope: reqctx.RequestScope,
    tasks: list[LaneTask],
    workers: int,
) -> list[list]:
    """Run every lane under one root span; returns per-lane outcomes.

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
    concurrent = len(tasks) > 1 and workers > 1

    def lane(task: LaneTask):
        return run_lane(
            service, name, task, scope.context, submit_s, detached=concurrent
        )

    with root_span(name) as root:
        if root is not None:
            root.attrs["request_id"] = scope.request_id
            root.attrs["n_lanes"] = len(tasks)
            root.attrs["workers"] = (
                min(workers, len(tasks)) if concurrent else 1
            )
        if not concurrent:
            outputs = [lane(task) for task in tasks]
        else:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(tasks)),
                thread_name_prefix=f"smiler-{name}",
            ) as executor:
                # list() drains the iterator so lane exceptions propagate.
                outputs = list(executor.map(lane, tasks))
            if root is not None:
                for _, lane_sp in outputs:
                    if lane_sp is not None:
                        root.adopt(lane_sp)
    if root is not None:
        service._last_trace = root
    return [outcomes for outcomes, _ in outputs]
