"""Scale-out beyond one GPU (Section 6.4.1's two options).

The paper names two ways to host more sensors than one 6 GB card fits:

1. **multiple GPUs** — shard sensors across a pool of devices.  The one
   placement/allocation path lives in
   :class:`repro.backend.pool.BackendPool` (greedy most-free balancing,
   circuit breakers), driven by :class:`repro.service.PredictionService`.
   :func:`plan_lanes` is the bridge from a placement snapshot to the
   engine-consumable lane plans (:class:`repro.exec.base.LanePlan`) that
   every execution engine — inline, thread or process-per-shard — runs
   batches through.  (The historical ``MultiGpuFleet`` facade over this
   path has been removed; construct a ``PredictionService`` with several
   backends instead.)
2. **less history per sensor** — trading accuracy for space.  SMiLer
   accepts a shorter history directly: pass the most recent slice
   (recency keeps segment semantics; uniform subsampling would warp the
   time axis under DTW), and the footprint shrinks linearly
   (:meth:`repro.core.smiler.SMiLer.estimate_memory_bytes`).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..exec.base import LanePlan

__all__ = ["plan_lanes"]


def plan_lanes(
    placements: Mapping[str, int], sensor_ids: Iterable[str]
) -> list[LanePlan]:
    """Turn a placement snapshot into one :class:`LanePlan` per shard.

    ``placements`` maps sensor id to hosting backend index (a
    point-in-time snapshot of the pool's placement table);
    ``sensor_ids`` fixes the order sensors appear *within* their lane.
    Lanes come back sorted by backend index and carry only the backends
    that actually host work — this (backend order, per-backend sensor
    order) pair is the entire bit-identical contract execution engines
    must honour, so it is computed exactly once, here, rather than once
    per engine.
    """
    by_backend: dict[int, list[str]] = {}
    for sensor_id in sensor_ids:
        by_backend.setdefault(placements[sensor_id], []).append(sensor_id)
    return [
        LanePlan(
            lane_index=lane_index,
            backend_index=backend_index,
            sensor_ids=tuple(by_backend[backend_index]),
        )
        for lane_index, backend_index in enumerate(sorted(by_backend))
    ]
