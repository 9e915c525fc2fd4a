"""The native backend: vectorised NumPy with zero cost-model overhead.

The serving fast path.  Numerical behaviour is *identical* to the
simulated backend (same ``dtw_batch`` kernels, the same ``k_smallest``
selection), but no simulated time is attributed and no abstract-op
arithmetic runs — ``launch`` is a constant-time no-op.  Memory is a
host-side ledger with an optional capacity so a pool of native workers
can still shard sensors by free space and refuse admission.

Only the ledger takes the backend's lock; the kernels are pure functions
of their arguments and need no serialization beyond what NumPy provides.
"""

from __future__ import annotations

import numpy as np

from ..dtw.distance import dtw_batch
from ..gpu.kernels import k_smallest
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
    def _run_dtw_verification(
        self, query, candidates, rho, lengths, need, cutoff, work
    ):
        return dtw_batch(query, candidates, rho, lengths, need, cutoff, work)

    def _run_full_dtw(self, query, candidates):
        return dtw_batch(query, candidates, rho=None)

    def _run_k_select(self, values, k, offsets):
        """The shared stable-argsort selection, nothing charged."""
        return k_smallest(values, k, offsets)[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NativeBackend({self.ledger!r})"
