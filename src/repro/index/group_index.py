"""Group-level index of the SMiLer Index (Section 4.3.2, Algorithm 1).

Keywords are Catenated Sliding Window Groups (CSGs) of each item query;
posting lists hold the window-enhanced lower bound ``LB_w`` (Theorem 4.3)
between the item query and every candidate segment:

    LB_w(IQ_i, C_{t,d_i}) = max( sum_j LB_EQ(SW_{b+j*omega}, DW_{r-j}),
                                 sum_j LB_EC(SW_{b+j*omega}, DW_{r-j}) )

The construction exploits both reuse opportunities of Remark 2: for each
``CSG_b`` the shift-sums are accumulated incrementally over ``m`` — the
partial sum after ``m`` windows *is* the bound of the item query whose
CSG has exactly ``m`` windows (the suffix property), so all item queries'
bounds fall out of one pass over the window-level posting lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backend.base import ComputeBackend
from ..gpu.kernels import THREADS_PER_BLOCK
from ..timeseries.windows import aligned_segment_start, csg_size
from .window_index import WindowLevelIndex

__all__ = ["GroupLevelIndex", "ItemLowerBounds"]

#: Abstract ops per shift-sum element (two adds + one max).
_OPS_PER_SUM_ELEM = 3.0


@dataclass
class ItemLowerBounds:
    """``LB_w`` for one item query against every candidate start.

    ``lbeq``/``lbec`` are indexed by segment start ``t`` (length
    ``series_len - d + 1``).  ``covered`` marks starts that received a
    bound; uncovered starts (empty CSG) keep bound 0 and must always be
    verified.
    """

    item_length: int
    lbeq: np.ndarray
    lbec: np.ndarray
    covered: np.ndarray

    def enhanced(self) -> np.ndarray:
        """``LB_en``-style combined bound ``max(LB_EQ, LB_EC)``."""
        return np.maximum(self.lbeq, self.lbec)

    def bound(self, mode: str) -> np.ndarray:
        """Select the bound variant: ``"en"``, ``"eq"`` or ``"ec"``."""
        if mode == "en":
            return self.enhanced()
        if mode == "eq":
            return self.lbeq
        if mode == "ec":
            return self.lbec
        raise ValueError(f"unknown lower-bound mode {mode!r}")


class GroupLevelIndex:
    """Shift-sum machine turning window posting lists into ``LB_w``."""

    def __init__(
        self,
        window_index: WindowLevelIndex,
        item_lengths: tuple[int, ...],
        backend: ComputeBackend | None = None,
    ) -> None:
        lengths = tuple(sorted(set(int(d) for d in item_lengths)))
        if not lengths:
            raise ValueError("at least one item length is required")
        if lengths[0] <= 0:
            raise ValueError(f"item lengths must be positive, got {lengths}")
        if lengths[-1] != window_index.master_length:
            raise ValueError(
                f"longest item length {lengths[-1]} must equal the master "
                f"query length {window_index.master_length}"
            )
        self.window_index = window_index
        self.item_lengths = lengths
        self.backend = backend if backend is not None else window_index.backend
        # Per b: the item queries whose CSG_{i,b} has exactly m windows,
        # each with the start of its first aligned segment (Lemma 4.1 at
        # r = m - 1) — fixed by (d, b, omega), so tabulated once.
        omega = window_index.omega
        self._closing: list[dict[int, list[tuple[int, int]]]] = []
        for b in range(omega):
            by_m: dict[int, list[tuple[int, int]]] = {}
            for d in lengths:
                m = csg_size(d, b, omega)
                if m:
                    offset = aligned_segment_start(d, b, m - 1, omega)
                    by_m.setdefault(m, []).append((d, offset))
            self._closing.append(by_m)

    def compute(self) -> dict[int, ItemLowerBounds]:
        """One pass of Algorithm 1: bounds for every item query."""
        wi = self.window_index
        omega = wi.omega
        n_dw = wi.n_dw
        series_len = wi.series_length

        results = {
            d: ItemLowerBounds(
                item_length=d,
                lbeq=np.zeros(series_len - d + 1),
                lbec=np.zeros(series_len - d + 1),
                covered=np.zeros(series_len - d + 1, dtype=bool),
            )
            for d in self.item_lengths
        }
        if n_dw == 0:
            return results

        total_sum_elements = 0
        for b, closing in enumerate(self._closing):
            if not closing:
                continue
            peq = np.zeros(n_dw)
            pec = np.zeros(n_dw)
            for m in range(1, max(closing) + 1):
                w = b + (m - 1) * omega
                if w >= wi.n_sw:
                    break
                # P_m[r] = P_{m-1}[r] + M[w, r - (m - 1)]  (shift-sum).
                shift = m - 1
                peq[shift:] += wi.lbeq_row(w)[: n_dw - shift]
                pec[shift:] += wi.lbec_row(w)[: n_dw - shift]
                total_sum_elements += 2 * (n_dw - shift)
                for d, offset in closing.get(m, ()):
                    self._emit(results[d], peq, pec, m, offset, omega)
        self.backend.launch(
            "group_index_sum",
            n_blocks=omega,
            ops_per_thread=(
                -(-total_sum_elements // (omega * THREADS_PER_BLOCK))
                * _OPS_PER_SUM_ELEM
            ),
            threads_per_block=THREADS_PER_BLOCK,
        )
        return results

    @staticmethod
    def _emit(
        out: ItemLowerBounds,
        peq: np.ndarray,
        pec: np.ndarray,
        m: int,
        offset: int,
        omega: int,
    ) -> None:
        """Write the partial sums into the candidate-start arrays.

        Partial sum ``r = m - 1 + j`` bounds the segment starting at
        ``offset + j * omega``: a contiguous run of sums against a
        stride-``omega`` run of starts, clipped to the starts that exist
        (``0 <= t <= series_len - d``, the last index of ``out``).
        """
        first = -(offset // omega)  # least j with a start >= 0
        last = min(peq.size - m, (out.lbeq.size - 1 - offset) // omega)
        n = last - first + 1
        if n <= 0:
            return
        t0 = offset + first * omega
        r0 = m - 1 + first
        out.lbeq[t0::omega][:n] = peq[r0 : r0 + n]
        out.lbec[t0::omega][:n] = pec[r0 : r0 + n]
        out.covered[t0::omega][:n] = True
