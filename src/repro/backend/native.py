"""The native backend: vectorised NumPy with zero cost-model overhead.

The serving fast path.  Numerical behaviour is *identical* to the
simulated backend (same ``dtw_batch`` kernels, same tie-breaking in
k-selection), but no simulated time is attributed and no abstract-op
arithmetic runs — ``launch`` is a constant-time no-op.  Memory is a
host-side ledger with an optional capacity so a pool of native workers
can still shard sensors by free space and refuse admission.

Only the ledger takes the backend's lock; the kernels are pure functions
of their arguments and need no serialization beyond what NumPy provides.
"""

from __future__ import annotations

import numpy as np

from ..dtw.distance import dtw_batch
from .base import SubstrateBackend

__all__ = ["NativeBackend"]

#: Ledger bound when no capacity is configured — effectively unlimited,
#: but finite so ``free_bytes`` stays an ``int`` and greedy placement
#: (max free == min allocated for equal capacities) still balances.
_UNBOUNDED_BYTES = 1 << 62


class NativeBackend(SubstrateBackend):
    """Straight NumPy compute: no cost model, optional memory bound."""

    name = "native"

    def __init__(self, capacity_bytes: int | None = None) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        super().__init__(
            _UNBOUNDED_BYTES if capacity_bytes is None else capacity_bytes
        )

    # ------------------------------------------------------------- kernels
    def _run_dtw_verification(self, query, candidates, rho):
        return dtw_batch(query, candidates, rho)

    def _run_full_dtw(self, query, candidates):
        return dtw_batch(query, candidates, rho=None)

    def _run_k_select(self, values, k, offsets):
        """One stable argsort, every segment a row — the wall-clock fast
        path.

        Matches the simulated kernel's answer exactly — equal values land
        in the same partition bucket there, so both resolve ties by index
        and order the answer ascending by value.  Rows are padded with
        NaN, which a stable sort puts last and behind a segment's own
        NaNs (their indices are smaller).
        """
        if len(offsets) == 2:
            return [np.argsort(values, kind="stable")[:k]]
        offsets = np.array(offsets)
        first, sizes = offsets[:-1], offsets[1:] - offsets[:-1]
        segment = np.repeat(np.arange(sizes.size), sizes)
        padded = np.full((sizes.size, sizes.max()), np.nan)
        padded[segment, np.arange(values.size) - first[segment]] = values
        tops = np.argsort(padded, axis=1, kind="stable")[:, :k]
        if sizes.min() >= tops.shape[1]:
            return list(tops)
        kept = np.arange(tops.shape[1]) < sizes[:, None]
        return np.split(tops[kept], np.cumsum(kept.sum(axis=1))[:-1])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NativeBackend({self.ledger!r})"
