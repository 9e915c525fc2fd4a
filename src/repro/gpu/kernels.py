"""Simulated GPU kernels: DTW verification and k-selection.

Each function performs the kernel's numerical work with vectorised NumPy
(the data-parallel shape of the CUDA grid) and charges its operation
counts to the :class:`~repro.gpu.costmodel.GpuCostModel` it is handed.
Abstract-op weights per primitive are module constants so the cost model
stays inspectable and testable.

Inputs arrive coerced and validated by the dispatching backend
(:class:`repro.backend.base.SubstrateBackend`): ``candidates`` is a
non-empty 2-D float64 array, ``values`` a non-empty 1-D float64 array,
``offsets`` rises strictly from 0 to ``values.size`` and ``k >= 1``.
"""

from __future__ import annotations

import numpy as np

from ..dtw.distance import dtw_batch
from .costmodel import GpuCostModel

__all__ = [
    "OPS_PER_DTW_CELL",
    "OPS_PER_LB_TERM",
    "OPS_PER_SELECT_ELEM",
    "GLOBAL_MEMORY_PENALTY",
    "THREADS_PER_BLOCK",
    "dtw_verification_kernel",
    "full_dtw_kernel",
    "k_select_kernel",
]

#: Abstract operations per banded-DTW DP cell (distance + 3-way min + add).
OPS_PER_DTW_CELL = 8.0
#: Abstract operations per LB_Keogh position (two clips, square, add).
OPS_PER_LB_TERM = 6.0
#: Abstract operations per element per k-selection pass.
OPS_PER_SELECT_ELEM = 2.0
#: Slowdown for kernels whose working set cannot live in shared memory.
#: The unbanded warping matrix of GPUScan exceeds the 48 KB shared memory,
#: forcing global-memory traffic ([60] reports ~4x).
GLOBAL_MEMORY_PENALTY = 4.0
#: CUDA block size used throughout (Appendix B.2's "small batch").
THREADS_PER_BLOCK = 256


def dtw_verification_kernel(
    cost: GpuCostModel,
    query: np.ndarray,
    candidates: np.ndarray,
    rho: int,
) -> np.ndarray:
    """Banded DTW of many candidates against one query, or against one
    query each — a launch fused across sensors (Algorithm 2).

    One thread per candidate; the compressed ``2 x (2*rho + 2)`` warping
    matrix fits in shared memory, so no global-memory penalty applies.
    Every thread expands the whole band — ``d * min(d, 2*rho + 1)``
    cells — which is also the block's slowest thread, the count
    :meth:`GpuCostModel.launch` asks for.
    """
    n, d = candidates.shape
    n_blocks = -(-n // THREADS_PER_BLOCK)
    cells = d * min(d, 2 * rho + 1)
    cost.launch(
        "dtw_verify",
        n_blocks=n_blocks,
        ops_per_thread=cells * OPS_PER_DTW_CELL,
        threads_per_block=THREADS_PER_BLOCK,
    )
    return dtw_batch(query, candidates, rho)


def full_dtw_kernel(
    cost: GpuCostModel, query: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Unbanded DTW (the GPUScan baseline of [60], Section 6.2.1).

    The full ``d x d`` warping matrix cannot live in shared memory, so the
    kernel pays the global-memory penalty on top of the larger cell count.
    """
    n = candidates.shape[0]
    d = int(np.asarray(query).size)
    n_blocks = -(-n // THREADS_PER_BLOCK)
    cost.launch(
        "dtw_full",
        n_blocks=n_blocks,
        ops_per_thread=d * d * OPS_PER_DTW_CELL * GLOBAL_MEMORY_PENALTY,
        threads_per_block=THREADS_PER_BLOCK,
    )
    return dtw_batch(query, candidates, rho=None)


def k_select_kernel(
    cost: GpuCostModel, values: np.ndarray, k: int, offsets
) -> list[np.ndarray]:
    """Per-segment indices of the k smallest values via distributive
    partitioning [3]; segment ``i`` is ``values[offsets[i]:offsets[i+1]]``.

    Mirrors the paper's two improvements over [3]: one block handles one
    query's selection, so the selections of every segment share one
    launch (charged at its slowest block), and *all* k smallest are
    returned, not just the k-th.
    """
    chosen: list[np.ndarray] = []
    slowest = 0
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        indices, passes = _partition_select(values[lo:hi], min(k, hi - lo))
        chosen.append(indices)
        slowest = max(slowest, passes * (hi - lo))
    cost.launch(
        "k_select",
        n_blocks=len(chosen),
        ops_per_thread=slowest * OPS_PER_SELECT_ELEM / THREADS_PER_BLOCK,
        threads_per_block=THREADS_PER_BLOCK,
    )
    return chosen


def _partition_select(values: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """One block's selection: ``(indices of the k smallest, passes)``.

    The algorithm range-partitions into 256 buckets, keeps every bucket
    strictly below the one containing the k-th value, and recurses into
    that pivot bucket; each pass touches the surviving elements once.
    """
    n_buckets = 256
    selected: list[np.ndarray] = []
    active = np.arange(values.size)
    remaining = k
    passes = 0
    # Guaranteed to terminate: each pass either resolves ties exactly or
    # strictly shrinks the active pivot bucket.
    while remaining > 0:
        passes += 1
        active_values = values[active]
        lo = float(active_values.min())
        hi = float(active_values.max())
        if lo == hi or passes > 64:
            # All remaining candidates tie (or precision exhausted):
            # take the first `remaining` of them.
            selected.append(active[:remaining])
            remaining = 0
            break
        scale = (n_buckets - 1) / (hi - lo)
        buckets = np.minimum(
            ((active_values - lo) * scale).astype(np.int64), n_buckets - 1
        )
        counts = np.bincount(buckets, minlength=n_buckets)
        cumulative = np.cumsum(counts)
        pivot = int(np.searchsorted(cumulative, remaining))
        below = buckets < pivot
        selected.append(active[below])
        remaining -= int(below.sum())
        active = active[buckets == pivot]

    chosen = np.concatenate(selected) if selected else np.empty(0, dtype=int)
    order = np.argsort(values[chosen], kind="stable")
    return chosen[order], passes
