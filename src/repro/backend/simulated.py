"""The simulated-GPU backend: cost-model time + bounded device memory.

Vectorised NumPy numerics whose operation counts are charged to a
:class:`~repro.gpu.costmodel.GpuCostModel`, plus the 6 GB malloc ledger
of the paper's GTX TITAN, behind the
:class:`~repro.backend.base.ComputeBackend` protocol.  This is the
default backend and the one every paper figure/table runs on — the
simulated-seconds ledger *is* the measurement.

Kernel dispatch and time attribution run under the backend's single
lock (the one that guards the memory ledger), so concurrent lanes never
lose a cost-model update.
"""

from __future__ import annotations

import numpy as np

from ..gpu.costmodel import DeviceSpec, GpuCostModel
from ..gpu.kernels import dtw_verification_kernel, full_dtw_kernel, k_select_kernel
from .base import SubstrateBackend

__all__ = ["SimulatedGpuBackend"]


class SimulatedGpuBackend(SubstrateBackend):
    """Kernel dispatch, memory and simulated time for one ``DeviceSpec``."""

    name = "simulated"

    def __init__(self, spec: DeviceSpec | None = None) -> None:
        #: The simulated device's published specification.
        self.spec = spec or DeviceSpec()
        #: The cost model (per-kernel attribution lives here).
        self.cost = GpuCostModel(spec=self.spec)
        super().__init__(self.spec.memory_bytes)

    # ------------------------------------------------------------- kernels
    def _run_dtw_verification(self, query, candidates, rho):
        """Banded DTW via the compressed-warping-matrix kernel."""
        with self._lock:
            return dtw_verification_kernel(self.cost, query, candidates, rho)

    def _run_full_dtw(self, query, candidates):
        """Unbanded DTW paying the global-memory penalty (GPUScan)."""
        with self._lock:
            return full_dtw_kernel(self.cost, query, candidates)

    def _run_k_select(self, values, k, offsets):
        """Device k-selection by distributive partitioning, one block per
        segment: the slowest block's pass count feeds the cost model."""
        with self._lock:
            return k_select_kernel(self.cost, values, k, offsets)

    def launch(
        self,
        name: str,
        n_blocks: int,
        ops_per_thread: float,
        threads_per_block: int = 256,
    ) -> float:
        """Account one kernel launch on the cost model."""
        with self._lock:
            return self.cost.launch(
                name, n_blocks, ops_per_thread, threads_per_block
            )

    # ---------------------------------------------------------------- time
    @property
    def elapsed_s(self) -> float:
        """Total simulated kernel seconds since the last reset."""
        return self.cost.elapsed_s

    def reset_time(self) -> None:
        """Zero the simulated-time ledger."""
        with self._lock:
            self.cost.reset()

    def set_elapsed(self, elapsed_s: float, injected_s: float = 0.0) -> None:
        """Overwrite the simulated clock (see :class:`ComputeBackend`)."""
        with self._lock:
            self.cost.elapsed_s = elapsed_s

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimulatedGpuBackend({self.spec.name!r}, "
            f"allocated={self.allocated_bytes}, "
            f"elapsed={self.cost.elapsed_s:.6f}s)"
        )
