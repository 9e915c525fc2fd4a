"""Window-level index of the SMiLer Index (Section 4.3.1, Fig. 6).

Posting lists: for every sliding window ``SW_b`` of the master query and
every disjoint window ``DW_r`` of the series, the matrices

* ``lbeq[b, r] = LB_EQ(SW_b, DW_r)`` — DW values against the master-query
  envelope restricted to the window,
* ``lbec[b, r] = LB_EC(SW_b, DW_r)`` — SW values against the *global*
  series envelope restricted to the DW.

Continuous reuse (Remark 1) is implemented with a ring buffer over the
``b`` axis: advancing the master query by one point relabels every
surviving sliding window (``SW_b -> SW_{b+1}``), writes the brand-new
``SW_0`` into the slot the dropped oldest window vacates, and recomputes
``LB_EQ`` for the right-end windows whose envelope the new point changed:
among ``SW_1 .. SW_rho`` a window's ``LB_EQ`` is recomputed iff its
envelope bits changed (old position ``i + 1`` against new position
``i``), every other one already holds the bytes a recomputation would
write.  ``LB_EC`` rows survive untouched because they depend only on
raw query values and the series envelope.

Two conservative deviations from the printed description, both noted in
DESIGN.md:

* the paper only recomputes the right-end envelopes; the left-end
  envelopes (which the dropped point can shrink) are left stale — stale
  envelopes are *wider*, so bounds stay valid, merely looser.  We do the
  same and assert the invariant in tests.
* appended series points can *widen* the series envelope near the tail;
  stale ``LB_EC`` there would **overestimate** and break exactness, so
  the affected trailing DW columns are recomputed on every append.

The unit of maintenance is a *lane*: the indexes that step together —
the sensors of one kernel domain that share a search configuration
(Section 4.4 serves many sensors from one device; Section 4.3 updates all
their posting lists in one kernel).  Their state lives stacked, one row
per index, in arrays that stay with the lane between ticks, so
:func:`step_many` is one computation and one ``window_index_step``
launch whatever the lane's size; :meth:`WindowLevelIndex.step` is a
stack of one.  A :class:`WindowLevelIndex` is a handle on one row: it
owns the sensor's growing series copy (history accrues one point per
continuous step) and reports the reuse counters consumed by tests and
the Fig. 7/8 cost accounting.  A stack forms the first time a group
steps (or is bounded) together and is re-packed when the group's
membership changes; rows may differ in series length, so every
per-column loop pads to the longest row and never reads a column at or
beyond a row's own ``n_dw``.  Every row of a stack steps together (a
subset that steps is re-packed out of it first), so the ring buffer has
one phase per stack: logical window ``b`` of every row sits in physical
posting row ``(phase + b) mod n_sw``, a row adopted from a stack in
another phase is rolled into this one.  The postings are window-major
(``[slot, row, r]``), so the group-level pass reads a run of consecutive
windows of the whole lane as at most two contiguous blocks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backend.base import ComputeBackend, as_backend, kernel_domain
from ..dtw.envelope import (
    Envelope,
    compute_envelope,
    compute_envelope_batch,
    envelope_shift,
)
from ..dtw.lower_bounds import (
    window_pair_lb_matrices,
    window_pair_lbec,
    window_pair_lbeq,
)
from ..gpu.kernels import OPS_PER_LB_TERM, THREADS_PER_BLOCK
from ..obs.hooks import observe_window_reuse

__all__ = ["WindowLevelIndex", "step_many"]


#: Cells a stacked posting refresh computes at once (1 MiB of float64
#: per temporary): a host-side working-set bound, like ``BLOCK_ROWS`` in
#: the DTW kernel — not the modelled CUDA block, and not a launch.  A
#: row bigger than this is a block of its own (one ``deep-search`` row
#: is 25 windows x 500 DWs x 16 = 200 k cells).
BLOCK_CELLS = 1 << 17


def _with_room(n_points: int) -> int:
    """Series capacity for ``n_points`` and the appends to come: half
    again as long (amortised O(1) appends; a stack is as wide as its
    longest row, so slack is paid for once per row)."""
    return n_points + max(n_points // 2, 64)


class LaneStack:
    """Struct-of-arrays state of the indexes that step together.

    One row per index; rows share ``(master_length, omega, rho)``, the
    series capacity and the ring ``phase``, and differ in everything
    else (``series_len`` first).  Every row of a stack steps together (a
    subset that steps is re-packed out first), so one phase serves them
    all; a row adopted from another stack is rolled into it.  Padding is
    never read: series and envelope positions at or beyond a row's
    ``series_len``, posting columns at or beyond its ``series_len //
    omega``.  Holds arrays only — no reference back to the handles — so
    dropping the last handle frees it.
    """

    def __init__(
        self, size: int, capacity: int, master_length: int, omega: int, rho: int
    ) -> None:
        self.size = size
        self.omega = omega
        self.rho = rho
        self.n_sw = master_length - omega + 1
        self.series = np.zeros((size, capacity))
        self.series_len = np.zeros(size, dtype=np.int64)
        #: Global series envelope, maintained in place (append touches
        #: the trailing rho + 1 positions only).
        self.series_env = Envelope(
            np.zeros((size, capacity)), np.zeros((size, capacity)), rho
        )
        #: Master queries and their envelopes; replaced, never mutated,
        #: by a step, so a published query view stays what it was.
        self.master = np.zeros((size, master_length))
        self.master_env = Envelope(
            np.zeros((size, master_length)), np.zeros((size, master_length)), rho
        )
        #: Posting lists, window-major: ``lbeq[slot, row, r]``, so one
        #: window of every row is one contiguous block.
        self.lbeq = np.zeros((self.n_sw, size, capacity // omega))
        self.lbec = np.zeros((self.n_sw, size, capacity // omega))
        #: Ring buffer: physical row of logical window 0, every index's.
        self.phase = 0
        #: Row b: master-query positions of sliding window SW_b.
        self.sw_positions = (
            np.arange(master_length - omega, master_length)
            - np.arange(self.n_sw)[:, None]
        )

    @property
    def capacity(self) -> int:
        return self.series.shape[1]

    def slots(self, count: int) -> np.ndarray:
        """Physical posting rows of logical windows ``0 .. count - 1``."""
        return (self.phase + np.arange(count)) % self.n_sw

    @classmethod
    def of(cls, indexes: Sequence["WindowLevelIndex"]) -> "LaneStack":
        """The stack whose rows are exactly ``indexes``, in order —
        packed afresh (and the handles re-seated) when they are not
        already that: a sensor joined or left, or the group is new."""
        stack = indexes[0]._stack
        if stack.size == len(indexes) and all(
            index._stack is stack and index._row == row
            for row, index in enumerate(indexes)
        ):
            return stack
        first = indexes[0]
        domain = kernel_domain(first.backend)
        for index in indexes:
            if kernel_domain(index.backend) is not domain or (
                index.master_length, index.omega, index.rho
            ) != (first.master_length, first.omega, first.rho):
                raise ValueError(
                    "indexes that step together must share one kernel "
                    "domain, master length, omega and rho; group them by "
                    "placement first"
                )
        if len({id(index) for index in indexes}) != len(indexes):
            raise ValueError("the same index appears twice in one group")
        longest = max(index.series_length for index in indexes)
        packed = cls(
            len(indexes), _with_room(longest),
            first.master_length, first.omega, first.rho,
        )
        packed.phase = first._stack.phase
        # Rows leave their stacks a stack at a time: one copy per array.
        moving: dict[int, tuple[LaneStack, list[int], list[int]]] = {}
        for row, index in enumerate(indexes):
            _, rows, ats = moving.setdefault(id(index._stack), (index._stack, [], []))
            rows.append(row)
            ats.append(index._row)
        for old, rows, ats in moving.values():
            packed._adopt(_run_or_rows(rows), old, _run_or_rows(ats))
        for row, index in enumerate(indexes):
            index._stack, index._row = packed, row
        return packed

    def _adopt(
        self, rows: slice | np.ndarray, old: "LaneStack", at: slice | np.ndarray
    ) -> None:
        """Copy rows ``at`` of ``old`` into ``rows`` of this stack, their
        posting rows rolled into this stack's phase.  Columns are copied
        up to the longest of them: a shorter row takes its own padding
        along (zero series and envelope, postings never read)."""
        n = int(old.series_len[at].max())
        n_dw = n // self.omega
        for mine, theirs in (
            (self.series, old.series),
            (self.series_env.upper, old.series_env.upper),
            (self.series_env.lower, old.series_env.lower),
        ):
            mine[rows, :n] = theirs[at, :n]
        self.series_len[rows] = old.series_len[at]
        for mine, theirs in (
            (self.master, old.master),
            (self.master_env.upper, old.master_env.upper),
            (self.master_env.lower, old.master_env.lower),
        ):
            mine[rows] = theirs[at]
        # Physical row p holds logical window (p - phase) mod n_sw here,
        # which the old stack holds in row (p - phase + old.phase): a
        # roll by the phases' difference, two slices.
        cut = (old.phase - self.phase) % self.n_sw
        for mine, theirs in ((self.lbeq, old.lbeq), (self.lbec, old.lbec)):
            mine[: self.n_sw - cut, rows, :n_dw] = theirs[cut:, at, :n_dw]
            mine[self.n_sw - cut :, rows, :n_dw] = theirs[:cut, at, :n_dw]

    def grow(self) -> None:
        """Widen the series capacity (and the posting columns with it)."""

        def widened(array: np.ndarray, width: int) -> np.ndarray:
            grown = np.zeros(array.shape[:-1] + (width,))
            grown[..., : array.shape[-1]] = array
            return grown

        capacity = _with_room(self.capacity)
        self.series = widened(self.series, capacity)
        self.series_env = Envelope(
            widened(self.series_env.upper, capacity),
            widened(self.series_env.lower, capacity),
            self.rho,
        )
        self.lbeq = widened(self.lbeq, capacity // self.omega)
        self.lbec = widened(self.lbec, capacity // self.omega)


def _run_or_rows(rows: list[int]) -> slice | np.ndarray:
    """``rows`` as a slice when they are consecutive (a copy by slices
    is a plain strided one), else as an index array."""
    run = range(rows[0], rows[0] + len(rows))
    return slice(run.start, run.stop) if rows == list(run) else np.array(rows)


class WindowLevelIndex:
    """Posting lists between master-query sliding windows and series DWs."""

    def __init__(
        self,
        series_values: np.ndarray,
        master_length: int,
        omega: int,
        rho: int,
        backend: ComputeBackend | None = None,
    ) -> None:
        series_values = np.asarray(series_values, dtype=np.float64)
        if master_length < omega:
            raise ValueError(
                f"master query length {master_length} shorter than omega {omega}"
            )
        if series_values.size < master_length:
            raise ValueError(
                f"series of length {series_values.size} shorter than the "
                f"master query length {master_length}"
            )
        self.omega = int(omega)
        self.rho = int(rho)
        self.master_length = int(master_length)
        self.n_sw = master_length - omega + 1
        self.backend = as_backend(backend)

        # A private stack of one, with no room to spare, until this index
        # first steps: alone it grows in place, in a group it is
        # re-packed into the group's stack.
        n = series_values.size
        stack = LaneStack(1, n, self.master_length, self.omega, self.rho)
        envelope = compute_envelope(series_values, rho)
        stack.series[0, :n] = series_values
        stack.series_env.upper[0, :n] = envelope.upper
        stack.series_env.lower[0, :n] = envelope.lower
        stack.series_len[0] = n
        self._stack = stack
        self._row = 0
        self._built = False

        # Reuse counters (Remark 1 bookkeeping, asserted in tests).
        self.rows_built_full = 0
        self.rows_recomputed_lbeq = 0
        self.rows_reused = 0
        self.columns_recomputed_lbec = 0

    # ---------------------------------------------------------------- views
    @property
    def series(self) -> np.ndarray:
        """Current series contents (read-only view)."""
        stack, row = self._stack, self._row
        view = stack.series[row, : stack.series_len[row]]
        view.flags.writeable = False
        return view

    @property
    def master_query(self) -> np.ndarray:
        """Current master query values (set by build(), slid by step())."""
        return self._stack.master[self._row]

    @property
    def series_length(self) -> int:
        """Number of stored observations."""
        return int(self._stack.series_len[self._row])

    @property
    def n_dw(self) -> int:
        """Number of complete disjoint windows of the stored series."""
        return self.series_length // self.omega

    @property
    def series_envelope(self) -> Envelope:
        """Global envelope of the stored series (views)."""
        env, n = self._stack.series_env, self.series_length
        return Envelope(env.upper[self._row, :n], env.lower[self._row, :n], self.rho)

    # ---------------------------------------------------------------- build
    def build(self, master_query: np.ndarray) -> None:
        """Full construction: all (SW, DW) posting lists (Fig. 4, lower half).

        One simulated GPU block per sliding window, threads striding over
        the disjoint windows.  Construction is per index; only the
        continuous step is stacked.
        """
        master_query = self._check_master(master_query)
        stack, row = self._stack, self._row
        master_env = compute_envelope(master_query, self.rho)
        stack.master[row] = master_query
        stack.master_env.upper[row] = master_env.upper
        stack.master_env.lower[row] = master_env.lower
        n_dw = self.n_dw
        sw = stack.sw_positions
        span, shape = slice(0, n_dw * self.omega), (n_dw, self.omega)
        lbeq, lbec = window_pair_lb_matrices(
            master_query[sw], master_env.upper[sw], master_env.lower[sw],
            stack.series[row, span].reshape(shape),
            stack.series_env.upper[row, span].reshape(shape),
            stack.series_env.lower[row, span].reshape(shape),
        )
        slots = stack.slots(self.n_sw)
        stack.lbeq[slots, row, :n_dw] = lbeq
        stack.lbec[slots, row, :n_dw] = lbec
        self._built = True
        self.rows_built_full += self.n_sw
        observe_window_reuse(rows_built_full=self.n_sw)
        per_thread = (
            -(-n_dw // THREADS_PER_BLOCK) * self.omega * 2 * OPS_PER_LB_TERM
        )
        self.backend.launch(
            "window_index_build",
            n_blocks=self.n_sw,
            ops_per_thread=per_thread,
            threads_per_block=THREADS_PER_BLOCK,
        )

    def _check_master(self, master_query: np.ndarray) -> np.ndarray:
        master_query = np.asarray(master_query, dtype=np.float64)
        if master_query.size != self.master_length:
            raise ValueError(
                f"master query of length {master_query.size} does not match "
                f"index master length {self.master_length}"
            )
        return master_query

    # ----------------------------------------------------------- continuous
    def step(self, new_point: float) -> None:
        """Advance one continuous-prediction step (a stack of one)."""
        step_many([self], [new_point])

    # -------------------------------------------------------------- exports
    def posting_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Logical-order ``(lbeq, lbec)`` matrices, shape ``(n_sw, n_dw)``
        (fresh arrays: un-ringing by fancy index already copies)."""
        stack, row, n_dw = self._stack, self._row, self.n_dw
        order = stack.slots(self.n_sw)
        return stack.lbeq[order, row, :n_dw], stack.lbec[order, row, :n_dw]

    def memory_bytes(self) -> int:
        """Device-resident footprint: series + envelope + posting lists."""
        return self.estimate_memory_bytes(
            self.series_length, self.master_length, self.omega
        )

    @staticmethod
    def estimate_memory_bytes(
        series_len: int, master_length: int, omega: int
    ) -> int:
        """Footprint of an index over ``series_len`` points, *before* build.

        Exact (the footprint is an analytic function of the shape), so
        placement can reserve memory without constructing the index.
        """
        n_sw = master_length - omega + 1
        n_dw = series_len // omega
        series = series_len * 8
        envelope = 2 * series_len * 8
        postings = 2 * n_sw * n_dw * 8
        return series + envelope + postings


def step_many(indexes: Sequence[WindowLevelIndex], points) -> None:
    """Advance a group of indexes one continuous step each (Fig. 6).

    Index ``i`` appends ``points[i]`` to its series, slides its master
    query (drop the oldest point, append the new one), relabels its ring
    buffer and refreshes only the affected posting lists — for the whole
    group in one stacked computation and one ``window_index_step``
    launch of one block per ``(index, window)`` refreshed, charged at
    its slowest block, on the first index's backend.  The indexes must
    share one kernel domain (:func:`~repro.backend.base.kernel_domain`),
    master length, omega and rho; they need not share a series length.  Host-side
    arithmetic plus a ledger entry: nothing here is a faultable kernel
    op.
    """
    if not indexes:
        return
    points = np.asarray(points, dtype=np.float64).ravel()
    if points.size != len(indexes):
        raise ValueError(f"{points.size} points for {len(indexes)} indexes")
    if not all(index._built for index in indexes):
        raise RuntimeError("call build() before step()")
    stack = LaneStack.of(indexes)
    omega, rho, n_sw = stack.omega, stack.rho, stack.n_sw
    rows = np.arange(stack.size)

    # Append.  The new point changes the series envelope at the rho + 1
    # trailing centres only, and those see nothing left of 2 * rho back
    # (an index clipped at 0 repeats a value the window holds already).
    if stack.series_len.max() == stack.capacity:
        stack.grow()
    at = stack.series_len
    stack.series[rows, at] = points
    stack.series_len = series_len = at + 1
    reach = np.arange(-2 * rho, 1)
    upper, lower = compute_envelope_batch(
        stack.series[rows[:, None], np.maximum(at[:, None] + reach, 0)], rho
    )
    where = (rows[:, None], at[:, None] + reach[rho:])
    upper, lower = upper[:, rho:], lower[:, rho:]
    if at.min() < rho:  # a band wider than a series: no centre left of 0
        live = where[1] >= 0
        where = tuple(index[live] for index in np.broadcast_arrays(*where))
        upper, lower = upper[live], lower[live]
    stack.series_env.upper[where] = upper
    stack.series_env.lower[where] = lower

    # A completed DW adds a column; either way the appended point
    # widened the envelope of the trailing rho positions, and a stale
    # LB_EC column there would overestimate — refresh the tail columns
    # of every row, against the master query as it still stands.  Rows
    # with fewer tail columns than the widest repeat their last one.
    n_dw = series_len // omega
    first = np.minimum(np.maximum(series_len - 1 - rho, 0) // omega, n_dw - 1)
    tail = int((n_dw - first).max())
    columns = np.minimum(first[:, None] + np.arange(tail), n_dw[:, None] - 1)
    cells = (rows[:, None, None], columns[:, :, None] * omega + np.arange(omega))
    sw = stack.sw_positions
    lbeq, lbec = window_pair_lb_matrices(
        stack.master[:, sw],
        stack.master_env.upper[:, sw],
        stack.master_env.lower[:, sw],
        stack.series[cells],
        stack.series_env.upper[cells],
        stack.series_env.lower[cells],
    )
    slots = stack.slots(n_sw)
    where = (slots[:, None], rows[:, None, None], columns[:, None, :])
    stack.lbeq[where] = lbeq
    stack.lbec[where] = lbec

    # Slide the master queries and their envelopes: only the first rho
    # and last rho + 1 positions change, the interior is reused.
    stack.master = master = np.concatenate(
        [stack.master[:, 1:], points[:, None]], axis=1
    )
    old_env = stack.master_env
    stack.master_env = master_env = envelope_shift(master, old_env)

    # Ring relabel: old SW_b becomes SW_{b+1}; new SW_0 takes the slot
    # the dropped oldest window vacates.  SW_0 is brand new (LB_EQ and
    # LB_EC); of the next rho windows, those whose envelope bits the
    # slide changed are refreshed (LB_EQ), the rest already hold what a
    # refresh would write.  Every column up to the longest row's is
    # computed; a shorter row's surplus lands in its padding.
    stack.phase = phase = (stack.phase - 1) % n_sw
    n_refresh = min(rho + 1, n_sw)
    counts = _windows_to_refresh(old_env, master_env, n_refresh, omega)
    widest = int(n_dw.max())
    span, shape = slice(0, widest * omega), (-1, widest, omega)
    # Rows are taken BLOCK_CELLS of (SW, DW, omega) cells at a time, so
    # the temporaries stay cache-sized whether the lane is 24 short
    # series or two of 8 000 points; a block refreshes its rows' most.
    block = max(1, BLOCK_CELLS // (n_refresh * widest * omega))
    for lo in range(0, stack.size, block):
        part = rows[lo : lo + block]
        refreshed = sw[: counts[part].max()]
        slots = stack.slots(len(refreshed))
        stack.lbeq[slots, part[:, None], :widest] = window_pair_lbeq(
            master_env.upper[part][:, refreshed],
            master_env.lower[part][:, refreshed],
            stack.series[part, span].reshape(shape),
        )
        stack.lbec[phase, part, :widest] = window_pair_lbec(
            master[part][:, sw[:1]],
            stack.series_env.upper[part, span].reshape(shape),
            stack.series_env.lower[part, span].reshape(shape),
        )[:, 0]

    recomputed = (n_dw - first).tolist()
    for index, columns, count in zip(indexes, recomputed, counts.tolist()):
        index.rows_built_full += 1
        index.rows_recomputed_lbeq += count - 1
        index.rows_reused += n_sw - count
        index.columns_recomputed_lbec += columns
    windows = int(counts.sum())
    observe_window_reuse(
        rows_built_full=stack.size,
        rows_recomputed_lbeq=windows - stack.size,
        rows_reused=stack.size * n_sw - windows,
        columns_recomputed_lbec=sum(recomputed),
    )
    indexes[0].backend.launch(
        "window_index_step",
        n_blocks=windows,
        ops_per_thread=(
            -(-widest // THREADS_PER_BLOCK) * omega * 2 * OPS_PER_LB_TERM
        ),
        threads_per_block=THREADS_PER_BLOCK,
    )


def _windows_to_refresh(
    old: Envelope, new: Envelope, n_refresh: int, omega: int
) -> np.ndarray:
    """Per row, how many of ``SW_0 .. SW_{n_refresh - 1}`` a slide must
    refresh: ``1 +`` the largest ``b`` whose positions hold an envelope
    change.  Position ``i`` of the slid query was ``i + 1`` before; bits
    are compared (a zero that changed sign counts as changed, a NaN that
    stayed does not) and the last position, the new point's, always
    counts as changed.  ``SW_b`` covers
    positions ``length - omega - b .. length - 1 - b``, so the lowest
    changed position ``p`` at or after ``SW_{n_refresh - 1}``'s first
    sets ``b = length - 1 - p``."""
    length = new.upper.shape[1]
    first = length - omega - n_refresh + 1  # SW_{n_refresh - 1}'s first

    def moved(now: np.ndarray, then: np.ndarray) -> np.ndarray:
        return now[:, first:-1].view(np.int64) != then[:, first + 1 :].view(np.int64)

    changed = np.ones((new.upper.shape[0], length - first), dtype=bool)
    changed[:, :-1] = moved(new.upper, old.upper) | moved(new.lower, old.lower)
    return np.minimum(length - first - changed.argmax(axis=1), n_refresh)


def lane_of(
    indexes: Sequence[WindowLevelIndex],
) -> tuple[LaneStack, np.ndarray]:
    """The stack behind ``indexes`` and their rows in it, for reading.

    Indexes that already live in one stack are read where they are —
    any subset, any order (a stale sensor re-searched alone stays in its
    lane); indexes living apart are packed together first.
    """
    stack = indexes[0]._stack
    if not all([index._stack is stack for index in indexes]):
        stack = LaneStack.of(indexes)
    return stack, np.array([index._row for index in indexes])
