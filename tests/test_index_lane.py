"""Differential identity battery for lane-stacked index maintenance.

``step_many`` / ``lower_bounds_many`` replaced the per-sensor
``WindowLevelIndex.step`` and ``GroupLevelIndex.compute`` bodies.  Those
bodies are kept here verbatim as the oracle (one private object per
sensor, exactly the state the old class held); everything the stacked
path maintains must equal it bit for bit, whatever shares the stack.
The oracle still refreshes every right-end window; only its reuse
counters and its launch count the windows whose envelope bits changed,
read off its own envelopes, as the stacked step counts them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import make_backend
from repro.dtw.envelope import Envelope, compute_envelope, envelope_shift
from repro.dtw.lower_bounds import (
    window_pair_lb_matrices,
    window_pair_lbec,
    window_pair_lbeq,
)
from repro.faults import FaultInjectingBackend, FaultProfile
from repro.gpu.kernels import OPS_PER_LB_TERM, THREADS_PER_BLOCK
from repro.index import GroupLevelIndex, SuffixKnnEngine, WindowLevelIndex
from repro.index.group_index import (
    ItemLowerBounds,
    LaneLowerBounds,
    lower_bounds_many,
)
from repro.index.window_index import lane_of, step_many
from repro.timeseries.windows import aligned_segment_start, csg_size

from .test_search_cascade import SMALL_CFG, adversarial_streams, make_series

BACKENDS = ["simulated", "native"]


class OracleWindowIndex:
    """The deleted per-sensor window index, kept verbatim but for the
    counting of refreshed windows (see the module docstring)."""

    def __init__(self, series_values, master_length, omega, rho, backend):
        series_values = np.asarray(series_values, dtype=np.float64)
        self.omega = int(omega)
        self.rho = int(rho)
        self.master_length = int(master_length)
        self.n_sw = master_length - omega + 1
        self.backend = backend

        capacity = max(2 * series_values.size, 1024)
        self._series = np.empty(capacity, dtype=np.float64)
        self._series[: series_values.size] = series_values
        self._series_len = int(series_values.size)
        self._series_env = compute_envelope(series_values, rho)

        self._n_dw_capacity = capacity // omega
        self._lbeq = np.zeros((self.n_sw, self._n_dw_capacity))
        self._lbec = np.zeros((self.n_sw, self._n_dw_capacity))
        self.n_dw = self._series_len // omega
        self._slot0 = 0
        self._built = False
        self._master_env: Envelope | None = None
        self._sw_positions = (
            np.arange(master_length - omega, master_length)
            - np.arange(self.n_sw)[:, None]
        )
        self.rows_built_full = 0
        self.rows_recomputed_lbeq = 0
        self.rows_reused = 0
        self.columns_recomputed_lbec = 0

    @property
    def series_length(self):
        return self._series_len

    def _slot(self, b):
        return (self._slot0 + b) % self.n_sw

    def lbeq_row(self, b):
        return self._lbeq[self._slot(b), : self.n_dw]

    def lbec_row(self, b):
        return self._lbec[self._slot(b), : self.n_dw]

    def _master_env_slices(self, master_query):
        env = self._master_env
        idx = self._sw_positions
        return master_query[idx], env.upper[idx], env.lower[idx]

    def _dw_slices(self, r_lo, r_hi):
        sl = slice(r_lo * self.omega, r_hi * self.omega)
        shape = (r_hi - r_lo, self.omega)
        return (
            self._series[: self._series_len][sl].reshape(shape),
            self._series_env.upper[sl].reshape(shape),
            self._series_env.lower[sl].reshape(shape),
        )

    def build(self, master_query):
        master_query = np.asarray(master_query, dtype=np.float64)
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
        per_thread = (
            -(-self.n_dw // THREADS_PER_BLOCK) * self.omega * 2 * OPS_PER_LB_TERM
        )
        self.backend.launch(
            "window_index_build",
            n_blocks=self.n_sw,
            ops_per_thread=per_thread,
            threads_per_block=THREADS_PER_BLOCK,
        )

    def step(self, new_point):
        self._append_series_point(float(new_point))
        new_master = np.concatenate(
            [self._master_query[1:], [float(new_point)]]
        )
        assert self._master_env is not None
        old_env = self._master_env
        self._master_env = envelope_shift(new_master, old_env)
        self._master_query = new_master

        self._slot0 = (self._slot0 - 1) % self.n_sw
        sw_vals, sw_up, sw_lo = self._master_env_slices(new_master)

        dw_vals, dw_up, dw_lo = self._dw_slices(0, self.n_dw)
        n_refresh = min(self.rho + 1, self.n_sw)
        slots = self._slot(np.arange(n_refresh))
        self._lbeq[slots, : self.n_dw] = window_pair_lbeq(
            sw_up[:n_refresh], sw_lo[:n_refresh], dw_vals
        )
        self._lbec[slots[0], : self.n_dw] = window_pair_lbec(
            sw_vals[:1], dw_up, dw_lo
        )[0]
        # The refresh above stays unconditional; what it is counted and
        # charged as is the windows whose envelope bits the slide changed.
        n_windows = windows_with_changed_bits(
            old_env, self._master_env, self._sw_positions[:n_refresh]
        )
        self.rows_built_full += 1
        self.rows_recomputed_lbeq += n_windows - 1
        self.rows_reused += self.n_sw - n_windows
        per_thread = (
            -(-self.n_dw // THREADS_PER_BLOCK) * self.omega * 2 * OPS_PER_LB_TERM
        )
        self.backend.launch(
            "window_index_step",
            n_blocks=n_windows,
            ops_per_thread=per_thread,
            threads_per_block=THREADS_PER_BLOCK,
        )

    def _append_series_point(self, value):
        if self._series_len == self._series.size:
            grown = np.empty(2 * self._series.size, dtype=np.float64)
            grown[: self._series_len] = self._series[: self._series_len]
            self._series = grown
            self._grow_dw_capacity()
        self._series[self._series_len] = value
        self._series_len += 1
        self._series_env = compute_envelope(
            self._series[: self._series_len], self.rho
        )
        self.n_dw = self._series_len // self.omega
        self._refresh_tail_columns()

    def _grow_dw_capacity(self):
        capacity = self._series.size // self.omega
        if capacity > self._n_dw_capacity:
            lbeq = np.zeros((self.n_sw, capacity))
            lbec = np.zeros((self.n_sw, capacity))
            lbeq[:, : self._n_dw_capacity] = self._lbeq
            lbec[:, : self._n_dw_capacity] = self._lbec
            self._lbeq, self._lbec = lbeq, lbec
            self._n_dw_capacity = capacity

    def _refresh_tail_columns(self):
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

    def posting_matrices(self):
        order = self._slot(np.arange(self.n_sw))
        return self._lbeq[order, : self.n_dw], self._lbec[order, : self.n_dw]


def windows_with_changed_bits(old_env, new_env, positions):
    """``1 +`` the largest ``b`` whose window ``positions[b]`` of the slid
    query holds a position whose envelope bits differ from the old
    envelope's one position further on; the new point's position has no
    old counterpart and always counts as changed."""
    upper = new_env.upper[:-1].view(np.int64) != old_env.upper[1:].view(np.int64)
    lower = new_env.lower[:-1].view(np.int64) != old_env.lower[1:].view(np.int64)
    changed = np.append(upper | lower, True)
    return 1 + max(b for b, window in enumerate(positions) if changed[window].any())


def oracle_compute(wi, item_lengths, backend):
    """``GroupLevelIndex.compute`` + ``_emit`` as this PR found them."""
    omega = wi.omega
    closings = []
    for b in range(omega):
        by_m = {}
        for d in item_lengths:
            m = csg_size(d, b, omega)
            if m:
                offset = aligned_segment_start(d, b, m - 1, omega)
                by_m.setdefault(m, []).append((d, offset))
        closings.append(by_m)

    def emit(out, peq, pec, m, offset):
        first = -(offset // omega)
        last = min(peq.size - m, (out.lbeq.size - 1 - offset) // omega)
        n = last - first + 1
        if n <= 0:
            return
        t0 = offset + first * omega
        r0 = m - 1 + first
        out.lbeq[t0::omega][:n] = peq[r0 : r0 + n]
        out.lbec[t0::omega][:n] = pec[r0 : r0 + n]
        out.covered[t0::omega][:n] = True

    n_dw = wi.n_dw
    series_len = wi.series_length
    results = {
        d: ItemLowerBounds(
            item_length=d,
            lbeq=np.zeros(series_len - d + 1),
            lbec=np.zeros(series_len - d + 1),
            covered=np.zeros(series_len - d + 1, dtype=bool),
        )
        for d in item_lengths
    }
    if n_dw == 0:
        return results
    total_sum_elements = 0
    for b, closing in enumerate(closings):
        if not closing:
            continue
        peq = np.zeros(n_dw)
        pec = np.zeros(n_dw)
        for m in range(1, max(closing) + 1):
            w = b + (m - 1) * omega
            if w >= wi.n_sw:
                break
            shift = m - 1
            peq[shift:] += wi.lbeq_row(w)[: n_dw - shift]
            pec[shift:] += wi.lbec_row(w)[: n_dw - shift]
            total_sum_elements += 2 * (n_dw - shift)
            for d, offset in closing.get(m, ()):
                emit(results[d], peq, pec, m, offset)
    backend.launch(
        "group_index_sum",
        n_blocks=omega,
        ops_per_thread=(
            -(-total_sum_elements // (omega * THREADS_PER_BLOCK)) * 3.0
        ),
        threads_per_block=THREADS_PER_BLOCK,
    )
    return results


class Twin:
    """One sensor both ways: a live index + group index on a backend it
    may share with a lane, and its oracle on a backend of its own."""

    def __init__(self, history, item_lengths, omega, rho, backend, name):
        master = max(item_lengths)
        self.item_lengths = tuple(sorted(item_lengths))
        self.oracle_backend = make_backend(name)
        self.oracle = OracleWindowIndex(
            history, master, omega, rho, self.oracle_backend
        )
        self.oracle.build(history[-master:])
        self.index = WindowLevelIndex(history, master, omega, rho, backend)
        self.index.build(history[-master:])
        self.group = GroupLevelIndex(self.index, item_lengths)

    def step_oracle(self, point):
        self.oracle.step(point)

    def assert_index_equal(self, label=""):
        live, want = self.index, self.oracle
        for got, expected in zip(live.posting_matrices(), want.posting_matrices()):
            np.testing.assert_array_equal(got, expected, err_msg=label)
        n = want._series_len
        assert live.series_length == n and live.n_dw == want.n_dw
        np.testing.assert_array_equal(live.series, want._series[:n])
        np.testing.assert_array_equal(
            live.series_envelope.upper, want._series_env.upper, err_msg=label
        )
        np.testing.assert_array_equal(
            live.series_envelope.lower, want._series_env.lower, err_msg=label
        )
        np.testing.assert_array_equal(live.master_query, want._master_query)
        master_env = live._stack.master_env
        np.testing.assert_array_equal(
            master_env.upper[live._row], want._master_env.upper, err_msg=label
        )
        np.testing.assert_array_equal(
            master_env.lower[live._row], want._master_env.lower, err_msg=label
        )
        for counter in (
            "rows_built_full", "rows_recomputed_lbeq", "rows_reused",
            "columns_recomputed_lbec",
        ):
            assert getattr(live, counter) == getattr(want, counter), (
                label, counter,
            )

    def assert_bounds_equal(self, bounds, label=""):
        want = oracle_compute(
            self.oracle, self.item_lengths, self.oracle_backend
        )
        assert list(bounds) == list(want)
        for d, expected in want.items():
            got = bounds[d]
            assert got.item_length == d
            np.testing.assert_array_equal(got.lbeq, expected.lbeq, err_msg=label)
            np.testing.assert_array_equal(got.lbec, expected.lbec, err_msg=label)
            np.testing.assert_array_equal(
                got.covered, expected.covered, err_msg=label
            )


def run_lane(
    twins, feeds, steps, leave_at=None, join_at=None, joiner=None,
    check=lambda step: True,
):
    """Step ``twins`` as one lane for ``steps`` ticks, checking every
    field against the oracles after every tick ``check`` selects."""
    feeds = list(feeds)
    for step in range(steps):
        if step == leave_at:
            twins, feeds = twins[1:], feeds[1:]
        if step == join_at:
            twin, feed = joiner()
            twins, feeds = twins + [twin], feeds + [feed]
        points = [feed[step] for feed in feeds]
        step_many([twin.index for twin in twins], points)
        for twin, point in zip(twins, points):
            twin.step_oracle(point)
        if not check(step):
            continue
        bounds = lower_bounds_many([twin.group for twin in twins])
        for i, (twin, found) in enumerate(zip(twins, bounds)):
            twin.assert_index_equal(f"step {step} row {i}")
            twin.assert_bounds_equal(found, f"step {step} row {i}")
    return twins


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestStackedEqualsPerSensor:
    def test_ragged_lane_with_a_join_and_a_leave(self, backend_name):
        """Different series lengths (rows complete a DW on different
        ticks), every adversarial shape, a freshly built index (its
        stack of one at phase 0) joining the warm lane and a row leaving
        it."""
        lengths, omega, rho = (8, 16, 24), 4, 2
        shared = make_backend(backend_name)
        streams = [
            stream[3 * i :] for i, stream in
            enumerate(adversarial_streams().values())
        ]
        ticks = 40
        rng = np.random.default_rng(7)
        twins, feeds = [], []
        for i, stream in enumerate(streams):
            history = stream[: stream.size - 6]
            twins.append(
                Twin(history, lengths, omega, rho, shared, backend_name)
            )
            scale = float(np.abs(history).max())
            feeds.append(np.concatenate(
                [stream[stream.size - 6 :], history[-1] + scale * 1e-3 * rng.normal(size=ticks)]
            ))
        assert len({twin.index.series_length % omega for twin in twins}) > 1

        def joiner():
            history = make_series(151, seed=42)
            return (
                Twin(history, lengths, omega, rho, shared, backend_name),
                make_series(ticks + 6, seed=43),
            )

        run_lane(twins, feeds, ticks, leave_at=25, join_at=12, joiner=joiner)

    def test_capacity_growth_mid_run(self, backend_name):
        """A lane packed with room for half its longest row again runs
        until that row fills it; the whole stack regrows and both rows
        stay right through it — as does an index alone, whose private
        stack has no room at all before its first step."""
        lengths, omega, rho = (8, 16), 4, 2
        shared = make_backend(backend_name)
        histories = [make_series(600, seed=5), make_series(30, seed=6)]
        twins = [
            Twin(history, lengths, omega, rho, shared, backend_name)
            for history in histories
        ]
        assert twins[0].index._stack.capacity == 600
        feeds = [make_series(340, seed=8), make_series(340, seed=9)]
        twins = run_lane(
            twins, feeds, 340,
            check=lambda step: step % 97 == 0 or 296 <= step <= 304 or step == 339,
        )
        stack = twins[0].index._stack
        assert twins[1].index._stack is stack and stack.capacity == 1350
        assert twins[0].index.series_length == 940

    @pytest.mark.parametrize(
        "lengths, omega, rho",
        [
            pytest.param((8,), 4, 7, id="n_sw<rho+1"),
            pytest.param((8, 16), 4, 0, id="rho=0"),
            pytest.param((6, 11), 3, 2, id="ragged-csg"),
            pytest.param((32, 64, 96), 16, 8, id="paper-defaults"),
            pytest.param((10,), 10, 15, id="one-window-rho>series"),
        ],
    )
    def test_parameter_corners(self, backend_name, lengths, omega, rho):
        shared = make_backend(backend_name)
        longest = max(lengths)
        twins = [
            Twin(
                make_series(longest + 7 * i + 3, seed=20 + i),
                lengths, omega, rho, shared, backend_name,
            )
            for i in range(4)
        ]
        feeds = [make_series(2 * omega + 9, seed=30 + i) for i in range(4)]
        run_lane(twins, feeds, 2 * omega + 9)

    @pytest.mark.parametrize("cells", [1, 1000])
    def test_blocked_refresh(self, backend_name, cells, monkeypatch):
        """A lane whose refresh exceeds ``BLOCK_CELLS`` is computed a few
        rows at a time (a row is about 3 x 35 x 4 cells here: one row per
        block; two and two and one) — same postings, still one launch."""
        from repro.index import window_index

        monkeypatch.setattr(window_index, "BLOCK_CELLS", cells)
        lengths, omega, rho = (8, 16), 4, 2
        shared = make_backend(backend_name)
        twins = [
            Twin(make_series(100 + 9 * i, seed=80 + i), lengths, omega, rho,
                 shared, backend_name)
            for i in range(5)
        ]
        feeds = [make_series(10, seed=90 + i) for i in range(5)]
        launches = getattr(shared, "cost", None) and shared.cost.launches
        run_lane(twins, feeds, 10)
        if launches is not None:  # ten stacked steps, ten shift-sums
            assert shared.cost.launches - launches == 20

    def test_a_subset_is_bounded_in_place_and_a_single_step_repacks(
        self, backend_name
    ):
        """A stale sensor re-searched alone reads its row where it is; a
        sensor stepped alone leaves the lane, and the next group step
        takes it back — no path changes a value."""
        lengths, omega, rho = (8, 16), 4, 2
        shared = make_backend(backend_name)
        twins = [
            Twin(make_series(120 + 5 * i, seed=60 + i), lengths, omega, rho,
                 shared, backend_name)
            for i in range(3)
        ]
        feeds = [make_series(12, seed=70 + i) for i in range(3)]
        twins = run_lane(twins, feeds, 4)
        lane = twins[0].index._stack
        assert all(twin.index._stack is lane for twin in twins)
        twins[1].assert_bounds_equal(twins[1].group.compute())
        found = lower_bounds_many([twins[2].group, twins[0].group])
        twins[2].assert_bounds_equal(found[0])
        twins[0].assert_bounds_equal(found[1])
        assert all(twin.index._stack is lane for twin in twins)

        twins[1].index.step(feeds[1][4])
        twins[1].step_oracle(feeds[1][4])
        twins[1].assert_index_equal("stepped alone")
        assert twins[1].index._stack is not lane
        for twin, feed in ((twins[0], feeds[0]), (twins[2], feeds[2])):
            twin.index.step(feed[4])
            twin.step_oracle(feed[4])
        run_lane(twins, [feed[5:] for feed in feeds], 4)
        assert len({id(twin.index._stack) for twin in twins}) == 1


class TestLedger:
    def test_a_stack_of_one_reads_the_per_sensor_ledger_to_the_digit(self):
        history, feed = make_series(333, seed=11), make_series(25, seed=12)
        shared = make_backend("simulated")
        twin = Twin(history, (8, 16, 24), 4, 2, shared, "simulated")
        for point in feed:
            twin.index.step(point)
            twin.step_oracle(point)
            twin.assert_bounds_equal(twin.group.compute())
        ours, theirs = shared.cost, twin.oracle_backend.cost
        assert ours.launches == theirs.launches
        assert ours.elapsed_s == theirs.elapsed_s
        assert ours.per_kernel_s == theirs.per_kernel_s

    def test_one_launch_each_per_group_charged_at_the_slowest_block(self):
        shared = make_backend("simulated")
        twins = [
            Twin(make_series(n, seed=n), (8, 16), 4, 2, shared, "simulated")
            for n in (90, 1500, 260)
        ]
        groups = [twin.group for twin in twins]
        before = shared.cost.launches
        step_many([twin.index for twin in twins], [0.1, 0.2, 0.3])
        lower_bounds_many(groups)
        assert shared.cost.launches - before == 2
        # The longest row alone prices both launches' threads; the group
        # only adds blocks.
        alone = make_backend("simulated")
        longest = Twin(make_series(1500, seed=1500), (8, 16), 4, 2, alone, "simulated")
        for name in ("window_index_step", "group_index_sum"):
            shared.cost.per_kernel_s.pop(name)
        one = alone.cost.launches
        longest.index.step(0.2)
        longest.group.compute()
        assert alone.cost.launches - one == 2
        step_many([twin.index for twin in twins], [0.1, 0.2, 0.3])
        lower_bounds_many(groups)
        for name in ("window_index_step", "group_index_sum"):
            assert shared.cost.per_kernel_s[name] >= alone.cost.per_kernel_s[name]

    def test_neither_is_a_faultable_op(self):
        backend = FaultInjectingBackend(
            make_backend("simulated"), FaultProfile(seed=1)
        )
        engines = [
            SuffixKnnEngine(make_series(200 + i, seed=i), SMALL_CFG, backend=backend)
            for i in range(3)
        ]
        tick = backend.tick
        step_many([engine.window_index for engine in engines], [0.0, 0.1, 0.2])
        lower_bounds_many([engine.group_index for engine in engines])
        assert backend.tick == tick


class TestRefusals:
    def test_native_backends_step_as_one_lane(self):
        """Every unwrapped native backend is in one kernel domain:
        indexes on three of them step and bound as one lane, every field
        equal to its oracle's."""
        twins = [
            Twin(
                make_series(120 + 7 * i, seed=i), (8, 16), 4, 2,
                make_backend("native"), "native",
            )
            for i in range(3)
        ]
        run_lane(twins, [make_series(30, seed=10 + i) for i in range(3)], 30)
        assert len({id(twin.index._stack) for twin in twins}) == 1

    def test_mismatched_groups_and_unbuilt_indexes(self):
        backend = make_backend("native")
        series = make_series(100, seed=1)
        a = WindowLevelIndex(series, 16, 4, 2, backend)
        b = WindowLevelIndex(series, 16, 4, 3, backend)
        c = WindowLevelIndex(series, 16, 4, 2, make_backend("simulated"))
        wrapped = FaultInjectingBackend(make_backend("native"), FaultProfile())
        d = WindowLevelIndex(series, 16, 4, 2, wrapped)
        with pytest.raises(RuntimeError):
            a.step(0.0)
        for index in (a, b, c, d):
            index.build(series[-16:])
        with pytest.raises(ValueError):
            step_many([a, b], [0.0, 0.0])
        for stranger in (c, d):  # each a kernel domain of its own
            with pytest.raises(ValueError, match="share one kernel domain"):
                step_many([a, stranger], [0.0, 0.0])
        with pytest.raises(ValueError):
            step_many([a, a], [0.0, 0.0])
        with pytest.raises(ValueError):
            step_many([a], [0.0, 0.0])
        with pytest.raises(ValueError):
            lower_bounds_many(
                [GroupLevelIndex(a, (8, 16)), GroupLevelIndex(a, (16,))]
            )
        step_many([], [])
        assert len(lower_bounds_many([])) == 0
        assert a.series_length == 100


# ------------------------------------------------------------------------
# Refresh by envelope change, one ring phase, bounds by mode: the identity
# battery.
#
# ``step_many`` recomputes a right-end window's LB_EQ only when the slide
# changed its envelope bits; a stack keeps one ring phase for all its
# rows (an adopted row is rolled into it); ``lower_bounds_many`` reads a
# level's windows as slices of the stack and writes only the modes it is
# asked for, a run of b's bounds in one block write.  All of it must
# leave every byte where the unconditional refresh (``OracleWindowIndex``)
# and the per-(b, d) writes of every start's three arrays
# (``previous_lower_bounds_many``) left it, after every tick.


def previous_lower_bounds_many(groups):
    """``lower_bounds_many`` with one ``_emit`` per ``(b, item length)``,
    every start's ``lbeq``, ``lbec`` and ``covered`` written, kept
    verbatim but for its launch (the ledger is pinned by
    :class:`TestLedger`), the one ring phase and the window-major layout
    of the stack it un-rings, and its return, ``({d: stacked bounds}, series_len)``; the
    ``_levels`` table it read is rebuilt here."""
    first = groups[0]
    wi = first.window_index
    omega, master, lengths = wi.omega, wi.master_length, first.item_lengths
    levels = []
    for m in range(1, master // omega + 1):
        n_b = sum(csg_size(master, b, omega) >= m for b in range(omega))
        closing = [
            (b, d, aligned_segment_start(d, b, m - 1, omega))
            for b in range(n_b) for d in lengths
            if csg_size(d, b, omega) == m
        ]
        levels.append((n_b, closing))

    stack, rows = lane_of([group.window_index for group in groups])
    omega, n_sw, size = stack.omega, stack.n_sw, len(groups)
    series_len = stack.series_len[rows]
    n_dw = series_len // omega
    widest, longest = int(n_dw.max()), int(series_len.max())

    stacked = {
        d: ItemLowerBounds(
            item_length=d,
            lbeq=np.zeros((size, longest - d + 1)),
            lbec=np.zeros((size, longest - d + 1)),
            covered=np.zeros((size, longest - d + 1), dtype=bool),
        )
        for d in first.item_lengths
    }
    order = (rows[:, None], (stack.phase + np.arange(n_sw)) % n_sw)
    lbeq = stack.lbeq.transpose(1, 0, 2)[order[0], order[1], :widest]
    lbec = stack.lbec.transpose(1, 0, 2)[order[0], order[1], :widest]
    peq = np.zeros((size, omega, widest))
    pec = np.zeros((size, omega, widest))
    live = None
    if n_dw.min() < widest:
        live = np.arange(widest) < n_dw[:, None]
    for shift, (n_b, closing) in enumerate(levels):
        w = shift * omega
        peq[:, :n_b, shift:] += lbeq[:, w : w + n_b, : widest - shift]
        pec[:, :n_b, shift:] += lbec[:, w : w + n_b, : widest - shift]
        for b, d, offset in closing:
            previous_emit(
                stacked[d], peq[:, b], pec[:, b], shift + 1, offset, omega, live
            )
    return stacked, series_len


def previous_emit(out, peq, pec, m, offset, omega, live=None):
    """``_emit`` as it stood: one ``b``'s sums, one stride-omega run."""
    low = -(offset // omega)  # least j with a start >= 0
    last = min(peq.shape[1] - m, (out.lbeq.shape[1] - 1 - offset) // omega)
    n = last - low + 1
    if n <= 0:
        return
    t0 = offset + low * omega
    starts = (slice(None), slice(t0, t0 + (n - 1) * omega + 1, omega))
    sums = (slice(None), slice(m - 1 + low, m - 1 + low + n))
    keep = True if live is None else live[sums]
    out.lbeq[starts] = peq[sums] if live is None else peq[sums] * keep
    out.lbec[starts] = pec[sums] if live is None else pec[sums] * keep
    out.covered[starts] = keep


def assert_bytes_equal(got, want, label):
    """Same shape, same bytes: ``assert_array_equal`` would let a ``-0.0``
    for a ``0.0`` or another NaN payload by."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape, label
    assert got.tobytes() == want.tobytes(), label


def assert_row_bytes(twin, label):
    """Postings, envelopes, series and counters of ``twin``'s live row
    hold its unconditional-refresh oracle's bytes."""
    live, want = twin.index, twin.oracle
    for got, expected in zip(live.posting_matrices(), want.posting_matrices()):
        assert_bytes_equal(got, expected, label)
    n, stack, row = want._series_len, live._stack, live._row
    for got, expected in (
        (live.series, want._series[:n]),
        (live.series_envelope.upper, want._series_env.upper),
        (live.series_envelope.lower, want._series_env.lower),
        (live.master_query, want._master_query),
        (stack.master_env.upper[row], want._master_env.upper),
        (stack.master_env.lower[row], want._master_env.lower),
    ):
        assert_bytes_equal(got, expected, label)
    for counter in (
        "rows_built_full", "rows_recomputed_lbeq", "rows_reused",
        "columns_recomputed_lbec",
    ):
        assert getattr(live, counter) == getattr(want, counter), (label, counter)


MODES = ("en", "eq", "ec")


def assert_lane_bounds(twins, label):
    """Each mode's one-array pass over the lane == ``bound(mode)`` of
    the previous pass over every row's own starts (a shorter row's
    padding beyond them holds whatever its surplus sums wrote); the
    two-sided pass's row views and each row's ``compute()`` == the
    previous pass's rows (``covered`` in closed form) and == each row's
    per-sensor oracle."""
    groups = [twin.group for twin in twins]
    previous, series_len = previous_lower_bounds_many(groups)
    for mode in MODES:
        found = lower_bounds_many(groups, (mode,))
        assert_bytes_equal(found.series_len, series_len, label)
        assert list(found.stacked) == [mode], label
        for d, want in previous.items():
            got = found.stacked[mode][d]
            assert got.shape == want.lbeq.shape, (label, mode, d)
            for i, n in enumerate(series_len.tolist()):
                assert_bytes_equal(
                    got[i, : n - d + 1], want.bound(mode)[i, : n - d + 1],
                    (label, mode, d, i),
                )
    found = lower_bounds_many(groups)
    assert sorted(found.stacked) == ["ec", "eq"]
    for i, (twin, n) in enumerate(zip(twins, series_len.tolist())):
        oracle = oracle_compute(twin.oracle, twin.item_lengths, twin.oracle_backend)
        alone = twin.group.compute()
        for d, expected in oracle.items():
            for name in ("lbeq", "lbec", "covered"):
                want = getattr(previous[d], name)[i, : n - d + 1]
                for got in (found[i][d], alone[d]):
                    assert_bytes_equal(getattr(got, name), want, (label, i, d, name))
                assert_bytes_equal(want, getattr(expected, name), (label, i, d, name))


FEEDS = (
    "walk", "plateau", "rising", "falling", "alternating", "signed-zeros",
    "x1e8", "nan",
)


def stream(kind, n_history, ticks, rng):
    """``(history, feed)`` of one shape: plateaus refresh SW_0 alone,
    strictly monotone runs every window; alternating extremes, signed
    zeros, 1e8 magnitudes and a NaN reading try the bit comparison."""
    walk = np.cumsum(0.3 * rng.normal(size=n_history + ticks))
    history, feed = walk[:n_history], walk[n_history:]
    last = history[-1]
    if kind == "plateau":
        feed = np.full(ticks, np.round(last))
        history[-ticks:] = feed[0]
    elif kind == "rising":
        feed = last + np.arange(1, ticks + 1) * 0.7
    elif kind == "falling":
        feed = last - np.arange(1, ticks + 1) * 0.7
    elif kind == "alternating":
        extreme = np.abs(history).max() + 1.0
        feed = extreme * np.arange(1, ticks + 1) * (-1.0) ** np.arange(ticks)
    elif kind == "signed-zeros":
        history = np.where(rng.random(n_history) < 0.5, 0.0, -0.0)
        feed = np.where(rng.random(ticks) < 0.5, 0.0, -0.0)
        history[:: max(1, n_history // 4)] = 1.0
    elif kind == "x1e8":
        history, feed = history * 1e8, feed * 1e8
    elif kind == "nan":
        feed = feed.copy()
        feed[rng.integers(ticks)] = np.nan
    return history, feed


@st.composite
def lanes(draw):
    """Window parameters (omega in {1, 2, 3, 4, 8, 16}, up to three item
    lengths, rho up to past the master length), rows of different series
    lengths and shapes, and the ticks at which a row joins, one leaves
    and one is restored from its series."""
    omega = draw(st.sampled_from([1, 2, 3, 4, 8, 16]))
    master = draw(st.integers(omega, 3 * omega + 5))
    others = draw(st.lists(st.integers(1, master), max_size=2))
    lengths = tuple(sorted({master, *others}))
    rho = draw(st.integers(0, master + 2))
    ticks = draw(st.integers(1, 24))
    rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = [draw(st.sampled_from(FEEDS)) for _ in range(rows + 1)]
    sizes = [
        max(master, ticks) + draw(st.integers(0, 3 * omega + 5))
        for _ in range(rows + 1)
    ]
    streams = [stream(kind, n, ticks, rng) for kind, n in zip(kinds, sizes)]
    event_tick = st.none() | st.integers(0, ticks - 1)
    return dict(
        lengths=lengths, omega=omega, rho=rho, ticks=ticks,
        streams=streams, join_at=draw(event_tick), leave_at=draw(event_tick),
        restore_at=draw(event_tick),
    )


def run_battery(case, backend_name):
    """Step the lane tick by tick, checking every row and the lane's
    bounds after every tick."""
    lengths, omega, rho = case["lengths"], case["omega"], case["rho"]
    shared = make_backend(backend_name)

    def twin(history):
        return Twin(history, lengths, omega, rho, shared, backend_name)

    *streams, joiner = case["streams"]
    twins = [twin(history) for history, _ in streams]
    feeds = [feed for _, feed in streams]
    assert_lane_bounds(twins, "built")
    for tick in range(case["ticks"]):
        if tick == case["join_at"]:
            twins.append(twin(joiner[0]))
            feeds.append(joiner[1])
        if tick == case["leave_at"] and len(twins) > 1:
            twins, feeds = twins[1:], feeds[1:]
        if tick == case["restore_at"]:
            # A restore rebuilds the index from the stored series.
            twins[-1] = twin(np.array(twins[-1].index.series))
        points = [feed[tick] for feed in feeds]
        step_many([t.index for t in twins], points)
        for t, point in zip(twins, points):
            t.step_oracle(point)
        for i, t in enumerate(twins):
            assert_row_bytes(t, f"tick {tick} row {i}")
        assert_lane_bounds(twins, f"tick {tick}")
    return twins


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestRefreshByEnvelopeChange:
    @settings(max_examples=120, deadline=None)
    @given(case=lanes())
    def test_every_tick_equals_the_unconditional_refresh(self, backend_name, case):
        with np.errstate(invalid="ignore"):
            run_battery(case, backend_name)

    @pytest.mark.parametrize(
        "kind, refreshed", [("plateau", "SW_0"), ("rising", "all"),
                            ("falling", "all")],
    )
    def test_plateaus_refresh_sw0_and_monotone_runs_every_window(
        self, backend_name, kind, refreshed
    ):
        lengths, omega, rho = (10, 21), 4, 3
        history, feed = stream(kind, 120, 30, np.random.default_rng(3))
        twin = Twin(history, lengths, omega, rho, make_backend(backend_name),
                    backend_name)
        n_refresh = rho + 1
        for tick, point in enumerate(feed):
            before = twin.index.rows_recomputed_lbeq
            step_many([twin.index], [point])
            twin.step_oracle(point)
            assert_row_bytes(twin, f"tick {tick}")
            if tick >= 2 * rho + 1:  # the master query's tail is all feed
                extra = 0 if refreshed == "SW_0" else n_refresh - 1
                assert twin.index.rows_recomputed_lbeq - before == extra

    def test_one_window_fewer_fails_the_battery(self, backend_name, monkeypatch):
        """Negative control: a refresh that stops one window short of the
        last one whose envelope changed is caught."""
        from repro.index import window_index

        counted = window_index._windows_to_refresh
        monkeypatch.setattr(
            window_index, "_windows_to_refresh", lambda *args: counted(*args) - 1
        )
        rng = np.random.default_rng(5)
        case = dict(
            lengths=(6, 13), omega=4, rho=3, ticks=12, join_at=None,
            leave_at=None, restore_at=None,
            streams=[stream(kind, 90, 12, rng) for kind in ("walk", "rising", "walk")],
        )
        with pytest.raises(AssertionError):
            run_battery(case, backend_name)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestStridedWrites:
    @settings(max_examples=60, deadline=None)
    @given(
        omega=st.sampled_from([2, 4, 16]),
        data=st.data(),
    )
    def test_grouped_writes_equal_the_per_b_writes(self, backend_name, omega, data):
        """Item lengths that are not multiples of omega, rows whose
        ``n_dw`` differ (the ``live`` padding), stepped a few ticks."""
        master = data.draw(st.integers(omega, 5 * omega + 3), label="master")
        others = data.draw(
            st.lists(st.integers(1, master).filter(lambda d: d % omega), max_size=3),
            label="lengths",
        )
        lengths = tuple(sorted({master, *others}))
        rho = data.draw(st.integers(0, 6), label="rho")
        sizes = data.draw(
            st.lists(st.integers(master, master + 4 * omega + 9), min_size=1,
                     max_size=4),
            label="series lengths",
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        shared = make_backend(backend_name)
        twins = [
            Twin(make_series(n, seed=seed + i), lengths, omega, rho, shared,
                 backend_name)
            for i, n in enumerate(sizes)
        ]
        assert_lane_bounds(twins, "built")
        feeds = [make_series(omega + 2, seed=seed + 50 + i) for i in range(len(sizes))]
        for tick in range(omega + 2):
            step_many([t.index for t in twins], [feed[tick] for feed in feeds])
            for t, feed in zip(twins, feeds):
                t.step_oracle(feed[tick])
            assert_lane_bounds(twins, f"tick {tick}")

    def test_write_groups_per_lane(self, backend_name):
        """The paper's (32, 64, 96) at omega = 16 closes each length at two
        levels (6 writes where 48 (b, d) pairs were); (8, 16) at omega =
        4 at two levels each (4 for 8)."""
        series = make_series(300, seed=1)
        backend = make_backend(backend_name)
        for lengths, omega, writes, pairs in (
            ((32, 64, 96), 16, 6, 48), ((8, 16), 4, 4, 8),
        ):
            index = WindowLevelIndex(series, max(lengths), omega, 2, backend)
            group = GroupLevelIndex(index, lengths)
            assert sum(len(w) for _, w in group._levels) == writes
            assert sum(n for _, w in group._levels for _, _, n, _ in w) == pairs


def stepped_alone(twin, points):
    """Step ``twin`` on a stack of its own, a point at a time: each step
    turns its ring one phase back."""
    for point in points:
        twin.index.step(point)
        twin.step_oracle(point)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestOnePhasePerStack:
    def twins(self, backend_name, omega=4):
        shared = make_backend(backend_name)
        twins = [
            Twin(make_series(90 + 7 * i, seed=200 + i), (6, 13), omega, 3,
                 shared, backend_name)
            for i in range(4)
        ]
        for i, twin in enumerate(twins):  # phases 0, -2, -4, -6 (n_sw = 10)
            stepped_alone(twin, make_series(2 * i, seed=210 + i))
        return twins

    def test_rows_adopted_from_stacks_in_different_phases(self, backend_name):
        """Packing rows out of four stacks of four phases — as a read and
        as a step, in two orders — rolls each into the new stack's phase:
        every row's logical posting lists keep their bytes."""
        twins = self.twins(backend_name)
        phases = {twin.index._stack.phase for twin in twins}
        assert len(phases) == 4
        before = [twin.index.posting_matrices() for twin in twins]
        for order in ([3, 0, 2, 1], [0, 1, 2, 3]):
            lane = [twins[i] for i in order]
            stack, _ = lane_of([twin.index for twin in lane])
            assert all(twin.index._stack is stack for twin in twins)
            for twin, want in zip(twins, before):
                for got, expected in zip(twin.index.posting_matrices(), want):
                    assert_bytes_equal(got, expected, order)
                assert_row_bytes(twin, order)
            assert_lane_bounds(lane, order)
        feeds = [make_series(9, seed=220 + i) for i in range(4)]
        for tick in range(9):
            if tick == 4:  # a row leaves, comes back from its own phase
                stepped_alone(twins[2], [feeds[2][tick]])
                rest = [twins[i] for i in (0, 1, 3)]
                step_many([t.index for t in rest], [feeds[i][tick] for i in (0, 1, 3)])
                for i in (0, 1, 3):
                    twins[i].step_oracle(feeds[i][tick])
                assert twins[2].index._stack is not twins[0].index._stack
                continue
            step_many([t.index for t in twins], [feed[tick] for feed in feeds])
            for twin, feed in zip(twins, feeds):
                twin.step_oracle(feed[tick])
            for i, twin in enumerate(twins):
                assert_row_bytes(twin, f"tick {tick} row {i}")
            assert_lane_bounds(twins, f"tick {tick}")

    def test_a_rebuilt_row_writes_in_its_stacks_phase(self, backend_name):
        twins = self.twins(backend_name)
        lane_of([twin.index for twin in twins])
        twin = twins[1]
        twin.index.build(twin.index.master_query.copy())
        twin.oracle.build(twin.oracle._master_query.copy())
        assert_row_bytes(twin, "rebuilt")
        assert_lane_bounds(twins, "rebuilt")

    @pytest.mark.parametrize("where", ["pass", "adoption"])
    def test_a_phase_off_by_one_fails_the_battery(
        self, backend_name, where, monkeypatch
    ):
        """Negative controls: the pass reading the lane one phase late,
        or a row adopted one phase off, is caught."""
        import copy

        from repro.index import group_index
        from repro.index.window_index import LaneStack

        if where == "pass":
            def late(indexes):
                stack, rows = lane_of(indexes)
                stack = copy.copy(stack)
                stack.phase = (stack.phase + 1) % stack.n_sw
                return stack, rows

            monkeypatch.setattr(group_index, "lane_of", late)
        else:
            adopt = LaneStack._adopt

            def off_by_one(self, rows, old, at):
                phase, old.phase = old.phase, (old.phase + 1) % old.n_sw
                try:
                    adopt(self, rows, old, at)
                finally:
                    old.phase = phase

            monkeypatch.setattr(LaneStack, "_adopt", off_by_one)
        with pytest.raises(AssertionError):
            self.test_rows_adopted_from_stacks_in_different_phases(backend_name)
