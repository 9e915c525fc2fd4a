"""Shared-memory series arena for the process engine.

Each shard worker publishes every hosted sensor's (normalized) series
buffer into a :class:`multiprocessing.shared_memory.SharedMemory` block
so the parent can recover committed history if the worker dies without
flushing.  Block layout::

    [ int64 committed_len ][ float64 x capacity ]

The series itself lives with its lane (the stacked state of
:mod:`repro.index.window_index`, which re-packs when a lane's membership
changes), so the block is a journal of it: :meth:`commit` copies the
points appended since the last commit into the block and only then
advances the int64 header, making the header the durability line — a
crash mid-batch loses at most the uncommitted tail of the batch being
executed, never a committed point.  A commit of a series that did not
grow (a forecast-only batch) touches nothing.  When the series outgrows
the block, the same commit migrates to a larger one and reports the new block name
so the parent's recovery map stays current.

Posting/index matrices deliberately stay in copy-on-write private
memory: the parent rebuilds them from the committed series on recovery
(construction is cheap relative to shipping them per batch).
"""

from __future__ import annotations

import logging
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING

import numpy as np

try:  # pragma: no cover - always present on POSIX
    import _posixshmem
except ImportError:  # pragma: no cover - Windows
    _posixshmem = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..index.window_index import WindowLevelIndex

__all__ = ["SharedSeriesArena", "read_committed_series", "unlink_block"]

logger = logging.getLogger(__name__)

_HEADER_BYTES = 8  # one little-endian int64: committed length


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop ``shm`` from the resource tracker's registry.

    Arena blocks are lifecycle-managed explicitly (worker FLUSH, parent
    crash recovery, parent exit finalizer), so the tracker's automatic
    cleanup would only double-unlink and warn about "leaked" blocks when
    a worker is torn down abruptly.  ``SharedMemory`` registers on both
    create *and* attach in 3.11, so every acquisition calls this.
    (Python 3.12 spells the create-side half ``track=False``.)
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker not running
        pass


def _unlink(shm: shared_memory.SharedMemory) -> None:
    """Unlink without the unregister round-trip ``SharedMemory.unlink``
    makes (the block was already untracked at acquisition, so that
    message would KeyError inside the tracker process)."""
    if _posixshmem is None:  # pragma: no cover - Windows frees on close
        return
    try:
        _posixshmem.shm_unlink(shm._name)
    except (FileNotFoundError, OSError):  # pragma: no cover - raced
        pass


def unlink_block(name: str) -> None:
    """Best-effort unlink of a block by name (parent exit backstop)."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return
    _untrack(shm)
    shm.close()
    _unlink(shm)


class SharedSeriesArena:
    """Worker-side registry of one shared block per hosted sensor."""

    def __init__(self) -> None:
        #: sensor_id -> (block, series view, header view)
        self._blocks: dict[str, tuple] = {}
        self._committed: dict[str, int] = {}

    def _bind(self, sensor_id: str, series: np.ndarray, capacity: int) -> dict:
        shm = shared_memory.SharedMemory(
            create=True, size=_HEADER_BYTES + 8 * capacity
        )
        _untrack(shm)
        view = np.ndarray((capacity,), dtype=np.float64, buffer=shm.buf,
                          offset=_HEADER_BYTES)
        view[: series.size] = series
        header = np.ndarray((1,), dtype=np.int64, buffer=shm.buf)
        header[0] = series.size
        self._blocks[sensor_id] = (shm, view, header)
        self._committed[sensor_id] = series.size
        return {"name": shm.name, "capacity": capacity}

    def share(self, sensor_id: str, index: WindowLevelIndex) -> dict:
        """Publish ``index``'s series into a fresh shared block.

        Returns the block descriptor (``{"name", "capacity"}``) the
        parent records for crash recovery.
        """
        series = index.series
        return self._bind(sensor_id, series, max(2 * series.size, 1024))

    def commit(self, sensor_id: str, index: WindowLevelIndex) -> dict | None:
        """Publish the points ``index`` appended since the last commit.

        Returns ``None`` in the steady state (no growth: no write; else
        tail copy, then header update) or the new block descriptor when
        the series outgrew its block and was migrated.
        """
        committed = self._committed[sensor_id]
        length = index.series_length
        if length == committed:
            return None
        old, view, header = self._blocks[sensor_id]
        series = index.series
        if length <= view.size:
            view[committed:length] = series[committed:]
            header[0] = length
            self._committed[sensor_id] = length
            return None
        descriptor = self._bind(sensor_id, series, 2 * length)
        old.close()
        _unlink(old)
        logger.debug(
            "shm arena: sensor %s migrated to block %s (capacity %d)",
            sensor_id, descriptor["name"], descriptor["capacity"],
        )
        return descriptor

    def __contains__(self, sensor_id: str) -> bool:
        return sensor_id in self._blocks

    def unlink_all(self) -> None:
        """Release every block (graceful worker shutdown after FLUSH)."""
        for shm, _, _ in self._blocks.values():
            shm.close()
            _unlink(shm)
        self._blocks.clear()
        self._committed.clear()


def read_committed_series(name: str) -> np.ndarray | None:
    """Parent-side recovery read: committed series from a dead worker's block.

    Attaches, copies out the committed prefix, then closes *and unlinks*
    the block (the worker that owned it is gone).  Returns ``None`` when
    the block no longer exists.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return None
    _untrack(shm)
    try:
        committed = int(np.ndarray((1,), dtype=np.int64, buffer=shm.buf)[0])
        capacity = (shm.size - _HEADER_BYTES) // 8
        committed = max(0, min(committed, capacity))
        data = np.ndarray((capacity,), dtype=np.float64, buffer=shm.buf,
                          offset=_HEADER_BYTES)
        series = np.array(data[:committed], dtype=np.float64, copy=True)
    finally:
        shm.close()
        _unlink(shm)
    return series
