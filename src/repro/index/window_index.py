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
``LB_EQ`` for the ``rho`` right-end windows whose envelope the new point
changed.  ``LB_EC`` rows survive untouched because they depend only on
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

The class also owns the growing series copy (history accrues one point
per continuous step) and reports reuse counters consumed by tests and the
Fig. 7/8 cost accounting.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import ComputeBackend, as_backend
from ..dtw.envelope import (
    Envelope,
    compute_envelope,
    envelope_extend,
    envelope_shift,
)
from ..dtw.lower_bounds import (
    window_pair_lb_matrices,
    window_pair_lbec,
    window_pair_lbeq,
)
from ..gpu.kernels import OPS_PER_LB_TERM, THREADS_PER_BLOCK
from ..obs.hooks import observe_window_reuse

__all__ = ["WindowLevelIndex"]


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

        capacity = max(2 * series_values.size, 1024)
        self._series = np.empty(capacity, dtype=np.float64)
        self._series[: series_values.size] = series_values
        self._series_len = int(series_values.size)
        self._series_env = compute_envelope(series_values, rho)

        self._n_dw_capacity = capacity // omega
        self._lbeq = np.zeros((self.n_sw, self._n_dw_capacity))
        self._lbec = np.zeros((self.n_sw, self._n_dw_capacity))
        self.n_dw = self._series_len // omega
        # Ring buffer: physical row of logical window b.
        self._slot0 = 0
        self._built = False
        # Master-query envelope, maintained incrementally across steps
        # (set by build(), slid by step()).
        self._master_env: Envelope | None = None
        # Row b: master-query positions of sliding window SW_b.
        self._sw_positions = (
            np.arange(master_length - omega, master_length)
            - np.arange(self.n_sw)[:, None]
        )

        # Reuse counters (Remark 1 bookkeeping, asserted in tests).
        self.rows_built_full = 0
        self.rows_recomputed_lbeq = 0
        self.rows_reused = 0
        self.columns_recomputed_lbec = 0

    # ---------------------------------------------------------------- views
    @property
    def series(self) -> np.ndarray:
        """Current series contents (read-only view)."""
        view = self._series[: self._series_len]
        view.flags.writeable = False
        return view

    @property
    def master_query(self) -> np.ndarray:
        """Current master query values (set by build(), slid by step())."""
        return self._master_query

    @property
    def series_length(self) -> int:
        """Number of stored observations."""
        return self._series_len

    @property
    def series_envelope(self) -> Envelope:
        """Global envelope of the stored series."""
        return self._series_env

    def _slot(self, b):
        """Physical row of logical window ``b`` (an index or an array)."""
        return (self._slot0 + b) % self.n_sw

    def lbeq_row(self, b: int) -> np.ndarray:
        """Posting list of ``SW_b`` (LB_EQ side), one entry per DW."""
        return self._lbeq[self._slot(b), : self.n_dw]

    def lbec_row(self, b: int) -> np.ndarray:
        """Posting list of ``SW_b`` (LB_EC side), one entry per DW."""
        return self._lbec[self._slot(b), : self.n_dw]

    # ---------------------------------------------------------------- build
    def _master_env_slices(
        self, master_query: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sliding-window slices of values and the master-query envelope.

        The envelope is the cached ``_master_env`` — build() computes it
        once and step() slides it in O(rho) — every caller keeps the
        cache in sync with the ``master_query`` it passes.
        """
        env = self._master_env
        idx = self._sw_positions
        return master_query[idx], env.upper[idx], env.lower[idx]

    def _dw_slices(self, r_lo: int, r_hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Disjoint-window slices (values + series envelope) for r in [lo, hi)."""
        sl = slice(r_lo * self.omega, r_hi * self.omega)
        shape = (r_hi - r_lo, self.omega)
        return (
            self._series[: self._series_len][sl].reshape(shape),
            self._series_env.upper[sl].reshape(shape),
            self._series_env.lower[sl].reshape(shape),
        )

    def build(self, master_query: np.ndarray) -> None:
        """Full construction: all (SW, DW) posting lists (Fig. 4, lower half).

        One simulated GPU block per sliding window, threads striding over
        the disjoint windows.
        """
        master_query = self._check_master(master_query)
        self._master_query = master_query.copy()
        self._master_env = compute_envelope(master_query, self.rho)
        self.n_dw = self._series_len // self.omega
        sw_vals, sw_up, sw_lo = self._master_env_slices(master_query)
        dw_vals, dw_up, dw_lo = self._dw_slices(0, self.n_dw)
        lbeq, lbec = window_pair_lb_matrices(
            sw_vals, sw_up, sw_lo, dw_vals, dw_up, dw_lo
        )
        self._slot0 = 0
        self._lbeq[:, : self.n_dw] = lbeq
        self._lbec[:, : self.n_dw] = lbec
        self._built = True
        self.rows_built_full += self.n_sw
        observe_window_reuse(rows_built_full=self.n_sw)
        per_thread = (
            -(-self.n_dw // THREADS_PER_BLOCK) * self.omega * 2 * OPS_PER_LB_TERM
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
        """Advance one continuous-prediction step (Fig. 6).

        Appends ``new_point`` to the series, slides the master query (drop
        the oldest point, append the new one), relabels the ring buffer and
        refreshes only the affected posting lists.
        """
        if not self._built:
            raise RuntimeError("call build() before step()")
        self._append_series_point(float(new_point))
        new_master = np.concatenate(
            [self._master_query[1:], [float(new_point)]]
        )
        # Slide the master envelope with the query: only the first rho
        # and last rho+1 positions change, the interior is reused.
        assert self._master_env is not None
        self._master_env = envelope_shift(new_master, self._master_env)
        self._master_query = new_master

        # Ring relabel: old SW_b becomes SW_{b+1}; new SW_0 takes the slot
        # the dropped oldest window vacates.
        self._slot0 = (self._slot0 - 1) % self.n_sw
        sw_vals, sw_up, sw_lo = self._master_env_slices(new_master)

        dw_vals, dw_up, dw_lo = self._dw_slices(0, self.n_dw)
        # SW_0 is brand new (LB_EQ and LB_EC); the next rho windows only
        # saw their envelope change (LB_EQ).
        n_refresh = min(self.rho + 1, self.n_sw)
        slots = self._slot(np.arange(n_refresh))
        self._lbeq[slots, : self.n_dw] = window_pair_lbeq(
            sw_up[:n_refresh], sw_lo[:n_refresh], dw_vals
        )
        self._lbec[slots[0], : self.n_dw] = window_pair_lbec(
            sw_vals[:1], dw_up, dw_lo
        )[0]
        self.rows_built_full += 1
        self.rows_recomputed_lbeq += n_refresh - 1
        self.rows_reused += self.n_sw - n_refresh
        observe_window_reuse(
            rows_built_full=1,
            rows_recomputed_lbeq=n_refresh - 1,
            rows_reused=self.n_sw - n_refresh,
        )
        per_thread = (
            -(-self.n_dw // THREADS_PER_BLOCK) * self.omega * 2 * OPS_PER_LB_TERM
        )
        self.backend.launch(
            "window_index_step",
            n_blocks=n_refresh,
            ops_per_thread=per_thread,
            threads_per_block=THREADS_PER_BLOCK,
        )

    def _append_series_point(self, value: float) -> None:
        if self._series_len == self._series.size:
            grown = np.empty(2 * self._series.size, dtype=np.float64)
            grown[: self._series_len] = self._series[: self._series_len]
            self._series = grown
            self._grow_dw_capacity()
        self._series[self._series_len] = value
        self._series_len += 1
        self._series_env = envelope_extend(
            self._series[: self._series_len], self._series_env, 1
        )

        # A completed DW adds a column; either way the appended point
        # widened the envelope of the trailing rho positions, and a stale
        # LB_EC column there would overestimate — refresh the tail.
        self.n_dw = self._series_len // self.omega
        self._refresh_tail_columns()

    def _grow_dw_capacity(self) -> None:
        capacity = self._series.size // self.omega
        if capacity > self._n_dw_capacity:
            lbeq = np.zeros((self.n_sw, capacity))
            lbec = np.zeros((self.n_sw, capacity))
            lbeq[:, : self._n_dw_capacity] = self._lbeq
            lbec[:, : self._n_dw_capacity] = self._lbec
            self._lbeq, self._lbec = lbeq, lbec
            self._n_dw_capacity = capacity

    def _refresh_tail_columns(self) -> None:
        """Recompute LB columns whose series envelope the append changed."""
        if self.n_dw == 0 or not self._built:
            return
        affected_from = max(0, self._series_len - 1 - self.rho)
        r_lo = max(0, affected_from // self.omega)
        r_lo = min(r_lo, self.n_dw - 1)
        sw_vals, sw_up, sw_lo = self._master_env_slices(self._master_query)
        dw_vals, dw_up, dw_lo = self._dw_slices(r_lo, self.n_dw)
        lbeq, lbec = window_pair_lb_matrices(
            sw_vals, sw_up, sw_lo, dw_vals, dw_up, dw_lo
        )
        slots = self._slot(np.arange(self.n_sw))
        self._lbeq[slots, r_lo : self.n_dw] = lbeq
        self._lbec[slots, r_lo : self.n_dw] = lbec
        self.columns_recomputed_lbec += self.n_dw - r_lo
        observe_window_reuse(columns_recomputed_lbec=self.n_dw - r_lo)

    # -------------------------------------------------------------- exports
    def posting_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Logical-order ``(lbeq, lbec)`` matrices, shape ``(n_sw, n_dw)``
        (fresh arrays: un-ringing by fancy index already copies)."""
        order = self._slot(np.arange(self.n_sw))
        return self._lbeq[order, : self.n_dw], self._lbec[order, : self.n_dw]

    def memory_bytes(self) -> int:
        """Device-resident footprint: series + envelope + posting lists."""
        return self.estimate_memory_bytes(
            self._series_len, self.master_length, self.omega
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
