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
one ``group_index_sum`` launch whatever its size.  The posting lists
are read where the lane's :class:`~repro.index.window_index.LaneStack`
keeps them, window-major under one ring phase: a level's windows of
every row are at most two contiguous runs, and with the partial sums
and the bounds laid out alike each add and each write is one flat NumPy
call.  The pass writes only the variants it is asked for — the search
its ``lb_mode``, one ``(sensors, starts)`` array per item length (for
``"en"`` the ``max`` is taken as the sums are written) — while the
simulated launch charges Algorithm 1's full pass.  No coverage mask is
kept: :func:`covered_starts` is Lemma 4.1 in closed form, and an
uncovered start is never written.  :meth:`GroupLevelIndex.compute` is a
stack of one asking for ``"eq"`` and ``"ec"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..backend.base import ComputeBackend, kernel_domain
from ..gpu.kernels import THREADS_PER_BLOCK
from ..timeseries.windows import aligned_segment_start, csg_size
from .window_index import WindowLevelIndex, lane_of

__all__ = [
    "GroupLevelIndex", "ItemLowerBounds", "LaneLowerBounds", "lower_bounds_many",
]

#: Abstract ops per shift-sum element (two adds + one max).
_OPS_PER_SUM_ELEM = 3.0

#: The shift-sums each bound variant is made of: ``LB_en`` is the larger
#: of the two (Theorem 4.3).
_SIDES = {"en": ("eq", "ec"), "eq": ("eq",), "ec": ("ec",)}


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
    """``LB_w`` of a lane as :func:`lower_bounds_many` wrote it:
    ``stacked[mode][d]`` holds a ``(sensors, longest series_len - d +
    1)`` array for each mode asked for, row ``i`` meaningful up to
    ``series_len[i] - d + 1`` and padding beyond (a shorter row's
    surplus sums, never a candidate).  With ``"eq"`` and ``"ec"``
    written, indexing or iterating gives one sensor's ``{item length:
    bounds}`` as 1-D row views, ``covered`` in closed form
    (:func:`covered_starts`), built when asked.
    """

    stacked: dict[str, dict[int, np.ndarray]]
    series_len: np.ndarray
    omega: int

    def __len__(self) -> int:
        return self.series_len.size

    def __getitem__(self, row: int) -> dict[int, ItemLowerBounds]:
        n = int(self.series_len[row])
        lbeq, lbec = self.stacked["eq"], self.stacked["ec"]
        return {
            d: ItemLowerBounds(
                item_length=d,
                lbeq=lbeq[d][row, : n - d + 1],
                lbec=lbec[d][row, : n - d + 1],
                covered=covered_starts(d, n, self.omega),
            )
            for d in lbeq
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
        # (-omega, 0]).  Start t is at flat position p = t + omega - 1 of
        # omega-wide rows, in column p mod omega of the grids _emit
        # writes, so the run writes a block of columns.  All fixed by
        # (lengths, omega), so tabulated once.
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


def lower_bounds_many(
    groups: Sequence[GroupLevelIndex], modes: Sequence[str] = ("eq", "ec")
) -> LaneLowerBounds:
    """One pass of Algorithm 1 for a lane of group indexes, writing the
    bound variants ``modes`` names (``"en"``, ``"eq"``, ``"ec"``).

    The groups must share one kernel domain
    (:func:`~repro.backend.base.kernel_domain`), item lengths and window
    parameters (the sensors of one domain under one search configuration
    do); their series may differ in length.  One stacked shift-sum over
    ``(sensor, b, DW)`` — of the posting lists a mode needs, read where
    the lane's stack keeps them — and one ``group_index_sum`` launch of
    ``omega`` blocks per sensor on the first group's backend, charged at
    its slowest block (the full pass, whatever was asked).  Returns the lane's stacked output, one
    row per group in order; with ``"eq"`` and ``"ec"`` written it is
    indexable per group: ``lower_bounds_many(groups)[i][d]``.
    """
    if not groups:
        return LaneLowerBounds({}, np.empty(0, dtype=np.int64), 1)
    first = groups[0]
    domain = kernel_domain(first.backend)
    for group in groups:
        if (
            kernel_domain(group.backend) is not domain
            or group.item_lengths != first.item_lengths
        ):
            raise ValueError(
                "lower_bounds_many needs group indexes that share one "
                "kernel domain and one set of item lengths"
            )
    for mode in modes:
        if mode not in _SIDES:
            raise ValueError(f"unknown lower-bound mode {mode!r}")
    stack, rows = lane_of([group.window_index for group in groups])
    omega, n_sw, size = stack.omega, stack.n_sw, len(groups)
    series_len = stack.series_len[rows]
    n_dw = series_len // omega
    widest, longest = int(n_dw.max()), int(series_len.max())

    # The shift-sums the modes need, over the postings where the stack
    # keeps them (gathered only for a group that is not the whole stack
    # in order): window-major, so logical window w of every row is one
    # (sensors, width) plane, physical plane (phase + w) mod n_sw.
    needed = {side for mode in modes for side in _SIDES[mode]}
    postings = {
        side: posting
        for side, posting in (("eq", stack.lbeq), ("ec", stack.lbec))
        if side in needed
    }
    width = stack.lbeq.shape[2]
    if rows.size != stack.size or (rows != np.arange(size)).any():
        postings = {
            side: posting[:, rows, :widest] for side, posting in postings.items()
        }
        width = widest
    partial = {side: np.zeros((omega, size, width)) for side in postings}
    grids = {
        mode: {d: np.zeros((omega, size, width)) for d in first.item_lengths}
        for mode in modes
    }
    sides = {
        mode: tuple(partial[side] for side in _SIDES[mode]) for mode in modes
    }
    # P_m[r] = P_{m-1}[r] + M[w, r - (m - 1)] with w = b + (m - 1) * omega
    # (shift-sum), every sensor and every b of the level at once.  A row
    # shorter than the widest sums its padding beyond its own n_dw; those
    # sums bound starts past its own last one, never a candidate.
    for shift, (n_b, writes) in enumerate(first._levels):
        lo = (stack.phase + shift * omega) % n_sw
        head = min(n_b, n_sw - lo)  # the level's windows up to the ring's end
        for side, posting in postings.items():
            _shift_add(partial[side], posting, 0, lo, head, shift)
            if head < n_b:
                _shift_add(partial[side], posting, head, 0, n_b - head, shift)
        for d, b, n, column in writes:
            for mode, by_length in grids.items():
                _emit(by_length[d], sides[mode], b, n, shift, column)

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
    stacked = {
        mode: {d: _in_start_order(grid, d, longest) for d, grid in by_length.items()}
        for mode, by_length in grids.items()
    }
    return LaneLowerBounds(stacked, series_len, omega)


def _shift_add(
    partial: np.ndarray, posting: np.ndarray, at: int, lo: int, n: int, shift: int
) -> None:
    """``partial[at + j, :, shift:] += posting[lo + j, :, :-shift]`` for
    ``j < n`` as one flat add: planes ``(sensors, width)`` of both are
    contiguous and equally wide, so the shift runs across a plane's rows.
    A sum ``r < shift`` then takes the row before's tail — junk, but at a
    partial sum no level from ``shift`` on reads (a level writes its
    sums ``r >= shift`` only)."""
    plane = partial[0].size
    sums = partial.reshape(-1)[at * plane + shift : (at + n) * plane]
    sums += posting.reshape(-1)[lo * plane : (lo + n) * plane - shift]


def _emit(
    grid: np.ndarray,
    sides: tuple[np.ndarray, ...],
    b: int,
    run: int,
    shift: int,
    column: int,
) -> None:
    """Write a run of ``b``'s partial sums into one length's grid of one
    mode as one flat write: one side's sums, or the ``max`` of two.

    Each side is ``(omega, sensors, width)``, sums of ``b`` over every
    sensor's DWs; ``grid`` too, start ``t`` of sensor ``i`` at ``[p mod
    omega, i, p // omega]`` with ``p = t + omega - 1``.  Sum ``r = shift
    + q`` of the run's ``k``-th ``b`` bounds the start at row ``q`` of
    column ``column + k``, so the run is one contiguous block of each.
    Past a sensor's last sum the write reads the next sensor's: it lands
    on rows ``q >= width - shift``, starts past every sensor's last (the
    DWs would end past the series), never a candidate.
    """
    plane = grid[0].size
    target = grid.reshape(-1)[column * plane : (column + run) * plane - shift]
    sums = [side.reshape(-1)[b * plane + shift : (b + run) * plane] for side in sides]
    if len(sums) == 2:
        np.maximum(sums[0], sums[1], out=target)
    else:
        target[...] = sums[0]


def _in_start_order(grid: np.ndarray, d: int, longest: int) -> np.ndarray:
    """``(sensors, longest - d + 1)`` bounds in start order out of ``d``'s
    ``(omega, sensors, width)`` grid (one transposing copy); rows the
    grid lacks are starts past every sensor's last, left 0."""
    omega, size, width = grid.shape
    rows = -(-(longest - d + omega) // omega)
    out = np.zeros((size, rows, omega))
    fit = min(rows, width)
    out[:, :fit] = grid[:, :, :fit].transpose(1, 2, 0)
    return out.reshape(size, -1)[:, omega - 1 : omega - 1 + longest - d + 1]


def covered_starts(d: int, series_len: int, omega: int) -> np.ndarray:
    """Which starts of item length ``d`` over ``series_len`` points have
    a non-empty CSG (Lemma 4.1): ``t`` iff ``d - b >= omega`` with ``b =
    (d + t) mod omega`` — the last disjoint window inside ``C_{t,d}``
    ends ``b`` points before it does, and must begin at or after ``t``.
    An uncovered start's bounds are 0 and it must always be verified."""
    return d - (d + np.arange(series_len - d + 1)) % omega >= omega
