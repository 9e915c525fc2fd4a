"""Cost model for the simulated GPU (substitution for CUDA hardware).

The paper measures wall-clock on a GeForce GTX TITAN; offline we cannot.
Instead every kernel reports its *operation counts* (DP cells expanded,
lower-bound positions touched, elements partitioned) and this model turns
them into simulated seconds using the published shape of the device:

* blocks are scheduled onto ``n_sms`` streaming multiprocessors in waves,
* threads inside a block run ``cores_per_sm``-wide, so a block's serial
  cycle count is ``ops_per_thread * ceil(threads / cores_per_sm)``,
* every launch pays a fixed overhead,
* the CPU baseline is a single serial stream of operations.

Why this substitution preserves the paper's results: Figs. 7/8 and
Table 3 compare methods whose gaps come from *how much work* they do
(pruned vs full scans, index reuse vs recomputation) and *how parallel*
that work is — exactly the two quantities the model accounts for.
Absolute seconds differ from the paper; ratios and orderings survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..obs.hooks import observe_kernel_launch

__all__ = ["DeviceSpec", "CPU_SPEC", "GpuCostModel", "CpuCostModel"]


@dataclass(frozen=True)
class DeviceSpec:
    """Published specification of the simulated device.

    Defaults follow the paper's GeForce GTX TITAN (14 SMX, 192 cores each,
    837 MHz, 6 GB) and model one abstract "operation" (a DP cell, an LB
    term, a comparison) as one core-cycle.
    """

    name: str = "GeForce GTX TITAN (simulated)"
    n_sms: int = 14
    cores_per_sm: int = 192
    clock_hz: float = 837e6
    memory_bytes: int = 6 * 1024**3
    launch_overhead_s: float = 5e-6
    shared_memory_bytes: int = 48 * 1024
    #: False (default): blocks run in waves of ``n_sms`` — the right model
    #: for a single isolated launch.  True: total block work is spread
    #: evenly over the SMs (fractional waves) — the right model when many
    #: sensors' kernels are batched back-to-back and the scheduler
    #: backfills idle SMs (the fleet regime of Section 4.4, used by the
    #: Fig. 7/8 and Table 3 drivers).
    work_conserving: bool = False


#: The paper's CPU host: Intel Core i7-3820 (3.6 GHz); we credit the
#: serial baseline ~2 abstract ops per cycle for superscalar execution.
CPU_SPEC = DeviceSpec(
    name="Intel Core i7-3820 (simulated)",
    n_sms=1,
    cores_per_sm=1,
    clock_hz=2 * 3.6e9,
    memory_bytes=64 * 1024**3,
    launch_overhead_s=0.0,
    shared_memory_bytes=0,
)


@dataclass
class GpuCostModel:
    """Accumulates simulated GPU time from kernel launch reports."""

    spec: DeviceSpec = field(default_factory=DeviceSpec)
    elapsed_s: float = 0.0
    per_kernel_s: dict[str, float] = field(default_factory=dict)
    launches: int = 0

    def launch(
        self,
        name: str,
        n_blocks: int,
        ops_per_thread: float,
        threads_per_block: int = 256,
    ) -> float:
        """Record one kernel launch; returns its simulated duration.

        Blocks execute in waves of ``n_sms``; inside a block the threads
        time-slice over the SM's cores (SIMD serialisation of Section 4.4
        is the caller's job: it must report the *serialised* ops per
        thread if its threads diverge).
        """
        if n_blocks <= 0:
            return 0.0
        if threads_per_block <= 0:
            raise ValueError(f"threads_per_block must be positive, got {threads_per_block}")
        slices = math.ceil(threads_per_block / self.spec.cores_per_sm)
        block_cycles = ops_per_thread * slices
        if self.spec.work_conserving:
            occupancy = n_blocks / self.spec.n_sms
        else:
            occupancy = math.ceil(n_blocks / self.spec.n_sms)
        duration = (
            self.spec.launch_overhead_s
            + occupancy * block_cycles / self.spec.clock_hz
        )
        self.elapsed_s += duration
        self.per_kernel_s[name] = self.per_kernel_s.get(name, 0.0) + duration
        self.launches += 1
        observe_kernel_launch(name, duration, n_blocks)
        return duration

    def reset(self) -> None:
        """Clear accumulated state."""
        self.elapsed_s = 0.0
        self.per_kernel_s = {}
        self.launches = 0


@dataclass
class CpuCostModel:
    """Serial cost stream for the CPU scan baselines."""

    spec: DeviceSpec = field(default_factory=lambda: CPU_SPEC)
    elapsed_s: float = 0.0

    def execute(self, ops: float) -> float:
        """Record ``ops`` serial operations; returns their duration."""
        duration = ops / self.spec.clock_hz
        self.elapsed_s += duration
        return duration

    def reset(self) -> None:
        """Clear accumulated state."""
        self.elapsed_s = 0.0
