"""Simulated GPU substrate: memory ledger, cost model, kernels, scan baselines."""

from .costmodel import CPU_SPEC, CpuCostModel, DeviceSpec, GpuCostModel
from .device import Allocation, GpuMemoryError, MemoryLedger
from .kernels import (
    GLOBAL_MEMORY_PENALTY,
    OPS_PER_DTW_CELL,
    OPS_PER_LB_TERM,
    OPS_PER_SELECT_ELEM,
    THREADS_PER_BLOCK,
    dtw_verification_kernel,
    full_dtw_kernel,
    k_select_kernel,
)
from .scan import fast_gpu_scan, gpu_scan

__all__ = [
    "CPU_SPEC",
    "CpuCostModel",
    "DeviceSpec",
    "GpuCostModel",
    "Allocation",
    "GpuMemoryError",
    "MemoryLedger",
    "GLOBAL_MEMORY_PENALTY",
    "OPS_PER_DTW_CELL",
    "OPS_PER_LB_TERM",
    "OPS_PER_SELECT_ELEM",
    "THREADS_PER_BLOCK",
    "dtw_verification_kernel",
    "full_dtw_kernel",
    "k_select_kernel",
    "fast_gpu_scan",
    "gpu_scan",
]
