"""Pluggable execution engines for the serving layer.

:class:`~repro.service.PredictionService` decides *what* to run — which
sensors, which ops, in which per-backend order — and hands the resulting
lane plans to an :class:`ExecutionEngine`, which decides *where and how*
they run:

* :class:`InlineEngine` — everything on the calling thread (the exact
  sequential path; the default).
* :class:`ThreadLaneEngine` — one thread-pool lane per backend shard
  (overlaps NumPy kernel time; the GIL serialises the rest).
* :class:`ProcessShardEngine` — one long-lived worker process per
  backend shard, commands on a pickle-free JSON channel (real
  wall-clock parallelism); a dead worker's shard is rebuilt from the
  readings the parent sent it.

All three serve **bit-identical** results because the per-backend
operation order — the only thing the numerics can see — is fixed by the
lane plan, not by the engine.  See ``docs/architecture.md`` ("Execution
engines") and ``tests/test_exec_parity.py``.
"""

from .base import (
    ENGINE_ENV_VAR,
    ENGINE_NAMES,
    ExecutionEngine,
    LanePlan,
    LaneTask,
    make_engine,
    resolve_engine_name,
)
from .local import InlineEngine, ThreadLaneEngine
from .process import ProcessShardEngine

__all__ = [
    "ENGINE_ENV_VAR",
    "ENGINE_NAMES",
    "ExecutionEngine",
    "InlineEngine",
    "LanePlan",
    "LaneTask",
    "ProcessShardEngine",
    "ThreadLaneEngine",
    "make_engine",
    "resolve_engine_name",
]
