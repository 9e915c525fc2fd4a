"""Device-memory accounting: the malloc/free ledger every backend owns.

:class:`MemoryLedger` bounds allocations by a capacity — the 6 GB the
paper's GTX TITAN offers on the simulated backend, an optional host-side
bound on the native one — which drives the "max sensors per GPU"
capacity analysis of Fig. 12(c) and the serving pool's placement.

The ledger holds no lock of its own: the backend that owns it serializes
``malloc``/``free`` under its single per-backend lock.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.hooks import observe_gpu_memory

__all__ = ["MemoryLedger", "GpuMemoryError", "Allocation"]


class GpuMemoryError(MemoryError):
    """Raised when an allocation exceeds the device's global memory."""


@dataclass(frozen=True)
class Allocation:
    """Handle for one device-memory allocation."""

    label: str
    nbytes: int
    serial: int


class MemoryLedger:
    """A capacity-bounded malloc/free ledger (callers hold the lock)."""

    def __init__(self, capacity_bytes: int, backend_id: str) -> None:
        self.capacity_bytes = capacity_bytes
        #: The owning backend's id: the memory gauge's label.
        self.backend_id = backend_id
        self._allocated = 0
        self._serial = 0
        self._live: dict[int, Allocation] = {}

    def malloc(self, nbytes: int, label: str = "buffer") -> Allocation:
        """Reserve memory; raises :class:`GpuMemoryError` when full."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"allocation size must be non-negative, got {nbytes}")
        if self._allocated + nbytes > self.capacity_bytes:
            raise GpuMemoryError(
                f"cannot allocate {nbytes} bytes for {label!r}: "
                f"{self._allocated} of {self.capacity_bytes} bytes in use"
            )
        self._serial += 1
        handle = Allocation(label=label, nbytes=nbytes, serial=self._serial)
        self._live[handle.serial] = handle
        self._allocated += nbytes
        observe_gpu_memory(self.backend_id, self._allocated)
        return handle

    def free(self, handle: Allocation) -> None:
        """Release a previous allocation (double frees are errors)."""
        if handle.serial not in self._live:
            raise KeyError(f"allocation {handle} is not live")
        del self._live[handle.serial]
        self._allocated -= handle.nbytes
        observe_gpu_memory(self.backend_id, self._allocated)

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._allocated

    @property
    def free_bytes(self) -> int:
        """Bytes still available."""
        return self.capacity_bytes - self._allocated

    def live_allocations(self) -> list[Allocation]:
        """Live allocations in allocation order."""
        return sorted(self._live.values(), key=lambda a: a.serial)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MemoryLedger(allocated={self._allocated}, "
            f"capacity={self.capacity_bytes})"
        )
