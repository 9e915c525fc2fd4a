"""Simulated GPU kernels: DTW verification and k-selection.

Each function performs the kernel's numerical work with vectorised NumPy
(the data-parallel shape of the CUDA grid) and charges its operation
counts to the :class:`~repro.gpu.costmodel.GpuCostModel` it is handed.
Abstract-op weights per primitive are module constants so the cost model
stays inspectable and testable.

Inputs arrive coerced and validated by the dispatching backend
(:class:`repro.backend.base.SubstrateBackend`): ``candidates`` is a
non-empty 2-D float64 array, ``values`` a non-empty 1-D float64 array
without NaN, ``offsets`` rises strictly from 0 to ``values.size``, ``k >= 1``.
"""

from __future__ import annotations

import numpy as np

from ..dtw.distance import band_cells, dtw_batch
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
    "k_smallest",
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
    lengths=None,
    need=None,
) -> np.ndarray:
    """Banded DTW of many candidates against one query, or against one
    query each — a launch fused across sensors (Algorithm 2); with
    ``lengths``, every suffix DTW a row needs (see
    :func:`~repro.dtw.distance.dtw_batch`).

    One thread per candidate; the compressed ``2 x (2*rho + 2)`` warping
    matrix fits in shared memory, so no global-memory penalty applies.
    A thread computes the band through its longest needed suffix; the
    launch is charged at its slowest thread — the band cells through the
    launch's longest suffix, ``band_cells(d, rho)`` — the count
    :meth:`GpuCostModel.launch` asks for.
    """
    n, d = candidates.shape
    if lengths is not None:
        d = int(lengths[-1 if need is None else int(np.max(need)) - 1])
    n_blocks = -(-n // THREADS_PER_BLOCK)
    cost.launch(
        "dtw_verify",
        n_blocks=n_blocks,
        ops_per_thread=band_cells(d, rho) * OPS_PER_DTW_CELL,
        threads_per_block=THREADS_PER_BLOCK,
    )
    return dtw_batch(query, candidates, rho, lengths, need)


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


def k_smallest(
    values: np.ndarray, k: int, offsets
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every backend's k-selection answer: per segment, the indices into
    ``values`` of its ``min(k, size)`` smallest, ascending, ties by
    index, segment after segment in one flat array — by one stable
    argsort of the segments as rows padded with ``+inf`` (behind a
    segment's own; every row ends in one).  Returns it, the rows and a
    size column."""
    offsets = np.asarray(offsets)
    widths = np.diff(offsets)
    sizes = widths[:, None]
    rows = np.empty((widths.size, widths.max() + 1))
    rows.fill(np.inf)
    rows[np.arange(rows.shape[1]) < sizes] = values
    tops = rows.argsort(axis=1, kind="stable")[:, :k]
    tops += offsets[:-1, None]
    if widths.min() >= k:
        return tops.ravel(), rows, sizes
    return tops[np.arange(tops.shape[1]) < sizes], rows, sizes


def k_select_kernel(
    cost: GpuCostModel, values: np.ndarray, k: int, offsets
) -> np.ndarray:
    """:func:`k_smallest`'s answer, charged as distributive partitioning
    [3] with the paper's two improvements: one block per segment (query),
    all in one launch charged at its slowest block, and *all* k smallest
    returned, not just the k-th.  The passes are replayed on sorted rows."""
    chosen, rows, sizes = k_smallest(values, k, offsets)
    rows.sort(axis=1)
    cost.launch(
        "k_select",
        n_blocks=sizes.shape[0],
        ops_per_thread=_slowest_block(rows, sizes, k)
        * OPS_PER_SELECT_ELEM / THREADS_PER_BLOCK,
        threads_per_block=THREADS_PER_BLOCK,
    )
    return chosen


_BUCKETS, _MAX_PASSES = 256, 64  # per pass; passes before a block stops
_PAIR = np.array([[[0]], [[1]]])  # a slice's two ends, a pass's two cuts


def _slowest_block(ranked: np.ndarray, sizes: np.ndarray, k: int) -> int:
    """``max(passes x size)`` over the blocks, replayed in lock step on the
    sorted rows.  A pass buckets a block's active values by ``(v - lo) *
    255 / (hi - lo)``, keeps those below the k-th value's bucket and
    recurses into it; a block stops when its values tie, when ``255 /
    span`` overflows, or after 64 passes (counted as 65).  Active values
    are a slice of the row (flat indices of its ends, clipped to the last
    slice: a stopped block stays stopped) whose bucket positions rise, so
    a pass is where two cuts are first reached (by the ``+inf`` end)."""
    flat = ranked.ravel()
    starts = np.arange(0, flat.size, ranked.shape[1])[:, None] - _PAIR
    bounds = sizes * _PAIR + starts  # [first, last] of each slice
    kth = flat[np.minimum(sizes, k) + starts[1]]
    passes = 1
    with np.errstate(all="ignore"):
        for _ in range(_MAX_PASSES):
            lo, hi = flat[bounds]
            scale = (_BUCKETS - 1.0) / (hi - lo)
            alive = np.isfinite(scale)  # inf: a tie (-0.0 too) or too narrow
            if not np.count_nonzero(alive):
                break
            passes = passes + alive
            cuts = np.floor((kth - lo) * scale) + _PAIR  # the k-th's bucket
            position = ranked - lo
            position *= scale
            counts = (position >= cuts).argmax(axis=2, keepdims=True)
            counts += starts
            np.maximum(counts, bounds[0], out=counts)
            bounds = np.minimum(counts, bounds[1], out=counts)
            if not np.count_nonzero(bounds[1] > bounds[0]):
                break  # one value a slice: every block stops next pass
    return int(np.maximum.reduce(passes * sizes, axis=None))
