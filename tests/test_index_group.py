"""Tests for the group-level index (CSG shift-sums, Theorem 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SimulatedGpuBackend
from repro.dtw import dtw_distance
from repro.index import GroupLevelIndex, WindowLevelIndex, direct_lb_en
from repro.index.group_index import ItemLowerBounds, _emit
from repro.timeseries.windows import aligned_segment_start, csg_size


def make_series(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.cos(np.arange(n) / 9.0) + 0.2 * rng.normal(size=n)


def build_group(series, item_lengths, omega, rho):
    master_len = max(item_lengths)
    wi = WindowLevelIndex(series, master_len, omega, rho, backend=SimulatedGpuBackend())
    wi.build(series[-master_len:])
    return GroupLevelIndex(wi, item_lengths)


class TestConstruction:
    def test_validation(self):
        series = make_series(100)
        wi = WindowLevelIndex(series, 16, 4, 2)
        wi.build(series[-16:])
        with pytest.raises(ValueError):
            GroupLevelIndex(wi, ())
        with pytest.raises(ValueError):
            GroupLevelIndex(wi, (8, 12))  # max != master length
        with pytest.raises(ValueError):
            GroupLevelIndex(wi, (0, 16))

    def test_result_shapes(self):
        series = make_series(120)
        group = build_group(series, (8, 16), omega=4, rho=2)
        bounds = group.compute()
        assert set(bounds) == {8, 16}
        assert bounds[8].lbeq.size == 120 - 8 + 1
        assert bounds[16].lbeq.size == 120 - 16 + 1

    def test_full_coverage_when_items_long_enough(self):
        """d >= 2*omega - 1 guarantees every start has a CSG alignment."""
        series = make_series(96)
        group = build_group(series, (8, 16), omega=4, rho=2)
        bounds = group.compute()
        assert bounds[8].covered.all()
        assert bounds[16].covered.all()


class TestBoundCorrectness:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 500),
        omega=st.sampled_from([3, 4, 8]),
        rho=st.integers(0, 4),
    )
    def test_lbw_never_exceeds_dtw(self, seed, omega, rho):
        """Theorem 4.3: LB_w <= DTW for every item query and candidate."""
        series = make_series(90, seed=seed)
        item_lengths = (2 * omega, 4 * omega)
        group = build_group(series, item_lengths, omega, rho)
        bounds = group.compute()
        master = series[-max(item_lengths):]
        for d in item_lengths:
            query = master[master.size - d :]
            lbw = bounds[d].enhanced()
            for t in np.flatnonzero(bounds[d].covered):
                dist = dtw_distance(query, series[t : t + d], rho=rho)
                assert lbw[t] <= dist + 1e-9, f"d={d}, t={t}"

    def test_lbw_never_exceeds_direct_lb_en(self):
        """The window-partial bound is dominated by the full LB_en."""
        series = make_series(200, seed=3)
        item_lengths = (12, 24)
        omega, rho = 4, 2
        group = build_group(series, item_lengths, omega, rho)
        bounds = group.compute()
        master = series[-24:]
        direct = direct_lb_en(SimulatedGpuBackend(), master, series, item_lengths, rho)
        for d in item_lengths:
            covered = bounds[d].covered
            assert (
                bounds[d].enhanced()[covered] <= direct[d][covered] + 1e-9
            ).all()

    def test_exact_match_bound_zero(self):
        series = make_series(150, seed=4)
        # Plant the master query inside the history.
        master = series[40:64].copy()
        wi = WindowLevelIndex(series, 24, 4, 2, backend=SimulatedGpuBackend())
        wi.build(master)
        group = GroupLevelIndex(wi, (12, 24))
        bounds = group.compute()
        assert bounds[24].enhanced()[40] == pytest.approx(0.0, abs=1e-12)
        assert bounds[12].enhanced()[52] == pytest.approx(0.0, abs=1e-12)

    def test_bound_mode_selector(self):
        series = make_series(100, seed=5)
        group = build_group(series, (8, 16), 4, 2)
        bounds = group.compute()[16]
        np.testing.assert_array_equal(
            bounds.bound("en"), np.maximum(bounds.lbeq, bounds.lbec)
        )
        np.testing.assert_array_equal(bounds.bound("eq"), bounds.lbeq)
        np.testing.assert_array_equal(bounds.bound("ec"), bounds.lbec)
        with pytest.raises(ValueError):
            bounds.bound("xx")

    def test_enhanced_dominates_single_sided(self):
        series = make_series(300, seed=6)
        group = build_group(series, (16, 32), 8, 3)
        bounds = group.compute()[32]
        en = bounds.enhanced()
        assert (en >= bounds.lbeq).all()
        assert (en >= bounds.lbec).all()
        # And is strictly better somewhere on generic data.
        assert (en > bounds.lbeq).any()
        assert (en > bounds.lbec).any()

    def test_gpu_accounting(self):
        series = make_series(100)
        group = build_group(series, (8, 16), 4, 2)
        before = group.backend.elapsed_s
        group.compute()
        assert group.backend.elapsed_s > before


class TestAlgorithm1Reference:
    """The vectorised shift-sum must equal the literal Algorithm 1."""

    def _compare(self, seed, omega, rho, item_lengths, n=140):
        from repro.index.reference import algorithm1_reference

        series = make_series(n, seed=seed)
        master_len = max(item_lengths)
        wi = WindowLevelIndex(series, master_len, omega, rho, backend=SimulatedGpuBackend())
        wi.build(series[-master_len:])
        fast = GroupLevelIndex(wi, item_lengths).compute()
        slow = algorithm1_reference(wi, item_lengths)
        for d in item_lengths:
            np.testing.assert_array_equal(fast[d].covered, slow[d].covered)
            covered = fast[d].covered
            np.testing.assert_allclose(
                fast[d].lbeq[covered], slow[d].lbeq[covered], atol=1e-12
            )
            np.testing.assert_allclose(
                fast[d].lbec[covered], slow[d].lbec[covered], atol=1e-12
            )

    def test_paper_default_shape(self):
        self._compare(seed=0, omega=4, rho=2, item_lengths=(8, 16, 24))

    def test_single_item(self):
        self._compare(seed=1, omega=3, rho=1, item_lengths=(12,))

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 200),
        omega=st.sampled_from([2, 3, 4, 8]),
        rho=st.integers(0, 4),
    )
    def test_random_configurations(self, seed, omega, rho):
        self._compare(
            seed=seed, omega=omega, rho=rho,
            item_lengths=(2 * omega, 3 * omega, 5 * omega),
        )


class TestEmitBySlices:
    """``_emit`` writes strided slices into a stack of rows, each clipped
    to its own length; the per-row mask-and-fancy-index form it replaced
    is kept here as the oracle."""

    @staticmethod
    def emit_by_mask(out, peq, pec, b, m, omega, series_len):
        d = out.item_length
        rs = np.arange(m - 1, peq.size)
        if rs.size == 0:
            return
        offset = aligned_segment_start(d, b, m - 1, omega)
        ts = offset + (rs - (m - 1)) * omega
        valid = (ts >= 0) & (ts + d <= series_len)
        ts, rs = ts[valid], rs[valid]
        out.lbeq[ts] = peq[rs]
        out.lbec[ts] = pec[rs]
        out.covered[ts] = True

    @staticmethod
    def blank(d, series_len, rows=None):
        shape = series_len - d + 1 if rows is None else (rows, series_len - d + 1)
        return ItemLowerBounds(
            d, np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)
        )

    def test_equals_the_mask_form_on_every_edge(self):
        """Ragged ``series_len`` (a partial last window), negative
        offsets (``(d - b) % omega != 0``) and ``n_dw < m`` (fewer
        partial sums than the CSG has windows) — every row alone, and
        stacked beside a longer neighbour that must not leak into it."""
        rng = np.random.default_rng(0)
        compared = negative = short = 0
        for omega in (2, 3, 4, 8):
            for d in range(omega, 5 * omega + 2):
                for series_len in range(d, d + 3 * omega + 2):
                    for b in range(omega):
                        m = csg_size(d, b, omega)
                        if m == 0:
                            continue
                        offset = aligned_segment_start(d, b, m - 1, omega)
                        negative += offset < 0
                        n_dw = series_len // omega
                        if (series_len + b) % 5 == 0:
                            n_dw = m - 1
                        short += n_dw < m
                        # Row 0 is the case; row 1 a neighbour one DW and
                        # a bit longer, so row 0 sits in a padded stack.
                        lens = np.array([series_len, series_len + omega + 1])
                        n_dws = np.array([n_dw, lens[1] // omega])
                        peq, pec = rng.random((2, 2, n_dws[1]))
                        for rows in (slice(0, 1), slice(0, 2)):
                            got = self.blank(d, lens[rows].max(), lens[rows].size)
                            width = n_dws[rows].max()
                            live = np.arange(width) < n_dws[rows, None]
                            _emit(
                                got, peq[rows, :width], pec[rows, :width],
                                m, offset, omega,
                                None if live.all() else live,
                            )
                            for i in range(lens[rows].size):
                                size = lens[i] - d + 1
                                want = self.blank(d, lens[i])
                                self.emit_by_mask(
                                    want, peq[i, : n_dws[i]], pec[i, : n_dws[i]],
                                    b, m, omega, lens[i],
                                )
                                np.testing.assert_array_equal(
                                    got.lbeq[i, :size], want.lbeq)
                                np.testing.assert_array_equal(
                                    got.lbec[i, :size], want.lbec)
                                np.testing.assert_array_equal(
                                    got.covered[i, :size], want.covered)
                                compared += 1
        assert compared > 3000 and negative > 100 and short > 100
