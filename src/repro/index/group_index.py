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

The pass is stacked over a lane (:func:`lower_bounds_many`): the
shift-sum is element-wise, so a leading sensor axis — and the ``omega``
values of ``b`` side by side — change no sum's order, and a group costs
one ``group_index_sum`` launch whatever its size.
:meth:`GroupLevelIndex.compute` is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..backend.base import ComputeBackend
from ..gpu.kernels import THREADS_PER_BLOCK
from ..timeseries.windows import aligned_segment_start, csg_size
from .window_index import WindowLevelIndex, lane_of

__all__ = [
    "GroupLevelIndex", "ItemLowerBounds", "LaneLowerBounds", "lower_bounds_many",
]

#: Abstract ops per shift-sum element (two adds + one max).
_OPS_PER_SUM_ELEM = 3.0


@dataclass
class ItemLowerBounds:
    """``LB_w`` for one item query against every candidate start.

    ``lbeq``/``lbec`` are indexed by segment start ``t`` (length
    ``series_len - d + 1``).  ``covered`` marks starts that received a
    bound; uncovered starts (empty CSG) keep bound 0 and must always be
    verified.  A lane's bounds are the same record with one row per
    sensor (:class:`LaneLowerBounds`).
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


@dataclass
class LaneLowerBounds:
    """``LB_w`` of a lane as :func:`lower_bounds_many` computed it:
    ``stacked[d]`` holds ``(sensors, longest series_len - d + 1)``
    arrays, row ``i`` meaningful up to ``series_len[i] - d + 1`` and
    padding beyond (not all zero, never a candidate).  Indexing or
    iterating gives one sensor's ``{item length: bounds}`` as 1-D row
    views, built when asked.
    """

    stacked: dict[int, ItemLowerBounds]
    series_len: np.ndarray

    def __len__(self) -> int:
        return self.series_len.size

    def __getitem__(self, row: int) -> dict[int, ItemLowerBounds]:
        n = int(self.series_len[row])
        return {
            d: ItemLowerBounds(
                item_length=d,
                lbeq=out.lbeq[row, : n - d + 1],
                lbec=out.lbec[row, : n - d + 1],
                covered=out.covered[row, : n - d + 1],
            )
            for d, out in self.stacked.items()
        }


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
        # Level m of the shift-sum serves the b whose CSG of the master
        # query has at least m windows — a prefix of range(omega), since
        # that size falls as b rises — and closes the item queries whose
        # CSG_{i,b} has exactly m: for one length a run of b, each
        # writing the starts of one residue mod omega from its first
        # aligned segment's on (Lemma 4.1 at r = m - 1, within
        # (-omega, 0]).  Start t is at flat position t + omega - 1 of the
        # omega-wide rows _emit writes (_start_grids), so the run writes a
        # block of columns.  All fixed by (lengths, omega), so tabulated
        # once.
        omega, master = window_index.omega, window_index.master_length
        self._levels: list[tuple[int, list[tuple[int, int, int, int]]]] = []
        for m in range(1, master // omega + 1):
            n_b = sum(csg_size(master, b, omega) >= m for b in range(omega))
            writes = []
            for d in lengths:
                run = [b for b in range(n_b) if csg_size(d, b, omega) == m]
                if run:
                    column = aligned_segment_start(d, run[0], m - 1, omega)
                    writes.append((d, run[0], len(run), column + omega - 1))
            self._levels.append((n_b, writes))
        # Shift-sum elements of one pass: 2 * (pairs * n_dw - shifts).
        self._sum_pairs = sum(n_b for n_b, _ in self._levels)
        self._sum_shifts = sum(
            n_b * shift for shift, (n_b, _) in enumerate(self._levels)
        )

    def compute(self) -> dict[int, ItemLowerBounds]:
        """One pass of Algorithm 1: bounds for every item query (a stack
        of one)."""
        return lower_bounds_many([self])[0]


def lower_bounds_many(groups: Sequence[GroupLevelIndex]) -> LaneLowerBounds:
    """One pass of Algorithm 1 for a lane of group indexes.

    The groups must share one backend object, item lengths and window
    parameters (the sensors of one shard under one search configuration
    do); their series may differ in length.  One stacked shift-sum over
    ``(sensor, b, DW)`` and one ``group_index_sum`` launch of ``omega``
    blocks per sensor, charged at its slowest block.  Returns the
    lane's stacked output, one row per group in order (indexable per
    group: ``lower_bounds_many(groups)[i][d]``).
    """
    if not groups:
        return LaneLowerBounds({}, np.empty(0, dtype=np.int64))
    first = groups[0]
    for group in groups:
        if (
            group.backend is not first.backend
            or group.item_lengths != first.item_lengths
        ):
            raise ValueError(
                "lower_bounds_many needs group indexes that share one "
                "backend object and one set of item lengths"
            )
    stack, rows = lane_of([group.window_index for group in groups])
    omega, n_sw, size = stack.omega, stack.n_sw, len(groups)
    series_len = stack.series_len[rows]
    n_dw = series_len // omega
    widest, longest = int(n_dw.max()), int(series_len.max())

    grids, stacked = {}, {}
    for d in first.item_lengths:
        grids[d], stacked[d] = _start_grids(d, size, longest, omega)
    # Un-ring once: logical window w of every sensor, its own columns.
    order = (rows[:, None], (stack.slot0[rows, None] + np.arange(n_sw)) % n_sw)
    lbeq = stack.lbeq[order[0], order[1], :widest]
    lbec = stack.lbec[order[0], order[1], :widest]
    # P_m[r] = P_{m-1}[r] + M[w, r - (m - 1)] with w = b + (m - 1) * omega
    # (shift-sum), every sensor and every b of the level at once.  A row
    # shorter than the widest sums padding beyond its own n_dw; ``live``
    # keeps those sums out of the bounds (None: no row is shorter).
    peq = np.zeros((size, omega, widest))
    pec = np.zeros((size, omega, widest))
    live = None
    if n_dw.min() < widest:
        live = np.arange(widest) < n_dw[:, None]
    for shift, (n_b, writes) in enumerate(first._levels):
        w = shift * omega
        peq[:, :n_b, shift:] += lbeq[:, w : w + n_b, : widest - shift]
        pec[:, :n_b, shift:] += lbec[:, w : w + n_b, : widest - shift]
        for d, b, n, column in writes:
            _emit(grids[d], peq[:, b : b + n], pec[:, b : b + n], shift, column, live)
    if live is not None:
        for length_grids in grids.values():
            _zero_uncovered(length_grids)

    sum_elements = 2 * (first._sum_pairs * n_dw - first._sum_shifts)
    first.backend.launch(
        "group_index_sum",
        n_blocks=omega * size,
        ops_per_thread=float(
            (-(-sum_elements // (omega * THREADS_PER_BLOCK))).max()
            * _OPS_PER_SUM_ELEM
        ),
        threads_per_block=THREADS_PER_BLOCK,
    )
    return LaneLowerBounds(stacked, series_len)


def _start_grids(
    d: int, size: int, longest: int, omega: int
) -> tuple[list[np.ndarray], ItemLowerBounds]:
    """Zeroed ``lbeq``, ``lbec`` and ``covered`` grids of ``(size, rows,
    omega)`` for item length ``d`` over series of up to ``longest``
    points, and the bounds that are views of them.  Start ``t`` sits at
    flat position ``t + omega - 1`` of a row, so the starts one ``b``
    writes (one residue mod omega, from a first start in ``(-omega,
    0]``) are a column and those of a run of ``b`` a block of columns."""
    starts = longest - d + 1
    shape = (size, -(-(starts + omega - 1) // omega), omega)
    grids = [np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)]
    span = slice(omega - 1, omega - 1 + starts)
    views = (grid.reshape(size, -1)[:, span] for grid in grids)
    return grids, ItemLowerBounds(d, *views)


def _emit(
    grids: list[np.ndarray],
    peq: np.ndarray,
    pec: np.ndarray,
    shift: int,
    column: int,
    live: np.ndarray | None,
) -> None:
    """Write a run of ``b``'s partial sums into one length's candidate
    starts, one strided write per array.

    Everything is stacked, one row per sensor: ``peq``/``pec`` are
    ``(sensors, run, widest n_dw)``, ``grids`` the ``(sensors, rows,
    omega)`` grids of ``lbeq``, ``lbec`` and ``covered``.  Partial sum
    ``r = shift + q`` of the run's ``k``-th ``b`` bounds the start in row
    ``q``, column ``column + k``: sums against rows, ``b`` against
    columns, clipped to the rows the grids and the longest row's sums
    have.  A start below 0 or past the arrays' end is grid padding,
    outside the arrays.  A shorter row's surplus sums (the ``False``
    cells of ``live``, ``r < n_dw`` per row) are written uncovered;
    :func:`_zero_uncovered` then gives their starts bound 0.
    """
    q = min(grids[0].shape[1], peq.shape[2] - shift)
    if q <= 0:
        return
    target = (slice(None), slice(0, q), slice(column, column + peq.shape[1]))
    sums = (slice(None), slice(None), slice(shift, shift + q))
    for grid, partial in zip(grids, (peq, pec)):
        grid[target] = partial[sums].transpose(0, 2, 1)
    grids[2][target] = True if live is None else live[:, shift : shift + q, None]


def _zero_uncovered(grids: list[np.ndarray]) -> None:
    """Multiply every uncovered start's bounds by 0 — a shorter row's
    surplus sums, written uncovered by :func:`_emit` — and every covered
    one's by 1, the product the per-``b`` writes took with ``live``."""
    grids[0] *= grids[2]
    grids[1] *= grids[2]
