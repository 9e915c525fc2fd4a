"""Tests for the window-level index and its continuous (ring) reuse."""

import numpy as np
import pytest

from repro.backend import SimulatedGpuBackend
from repro.dtw.envelope import compute_envelope
from repro.index import WindowLevelIndex


def make_series(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(np.arange(n) / 6.0) + 0.15 * rng.normal(size=n)


def fresh_index(series, master, omega=4, rho=2):
    idx = WindowLevelIndex(series, master.size, omega, rho, backend=SimulatedGpuBackend())
    idx.build(master)
    return idx


class TestBuild:
    def test_shapes(self):
        series = make_series(64)
        master = series[-12:]
        idx = fresh_index(series, master)
        lbeq, lbec = idx.posting_matrices()
        assert lbeq.shape == (9, 16)  # n_sw = 12-4+1, n_dw = 64/4
        assert lbec.shape == (9, 16)
        assert (lbeq >= 0).all() and (lbec >= 0).all()

    def test_master_shorter_than_omega_rejected(self):
        with pytest.raises(ValueError):
            WindowLevelIndex(make_series(64), 3, omega=4, rho=1)

    def test_series_shorter_than_master_rejected(self):
        with pytest.raises(ValueError):
            WindowLevelIndex(make_series(8), 12, omega=4, rho=1)

    def test_wrong_master_length_rejected(self):
        idx = WindowLevelIndex(make_series(64), 12, omega=4, rho=1)
        with pytest.raises(ValueError):
            idx.build(np.zeros(10))

    def test_step_before_build_rejected(self):
        idx = WindowLevelIndex(make_series(64), 12, omega=4, rho=1)
        with pytest.raises(RuntimeError):
            idx.step(0.0)

    def test_build_counts_gpu_time(self):
        series = make_series(64)
        idx = fresh_index(series, series[-12:])
        assert idx.backend.elapsed_s > 0


class TestContinuousReuse:
    def _run_steps(self, n_steps, omega=4, rho=2, n=80, master_len=12):
        series = make_series(n)
        future = make_series(n_steps, seed=99) * 0.5
        idx = fresh_index(series, series[-master_len:], omega, rho)
        current = series.copy()
        master = series[-master_len:].copy()
        for p in future:
            idx.step(p)
            current = np.append(current, p)
            master = np.append(master[1:], p)
        return idx, current, master

    def test_lbec_matches_fresh_rebuild(self):
        """LB_EC posting lists survive relabeling byte-for-byte."""
        idx, series, master = self._run_steps(9)
        fresh = fresh_index(series, master)
        _, lbec_stepped = idx.posting_matrices()
        _, lbec_fresh = fresh.posting_matrices()
        np.testing.assert_allclose(lbec_stepped, lbec_fresh, atol=1e-12)

    def test_lbeq_right_rows_match_fresh(self):
        """Rows b <= rho are current after each step (recomputed when
        their envelope changed) and must match fresh."""
        idx, series, master = self._run_steps(7)
        fresh = fresh_index(series, master)
        lbeq_stepped, _ = idx.posting_matrices()
        lbeq_fresh, _ = fresh.posting_matrices()
        rho = idx.rho
        np.testing.assert_allclose(
            lbeq_stepped[: rho + 1], lbeq_fresh[: rho + 1], atol=1e-12
        )

    def test_stale_lbeq_rows_stay_valid_lower_bounds(self):
        """Rows b > rho keep stale (wider-envelope) values: <= fresh."""
        idx, series, master = self._run_steps(11)
        fresh = fresh_index(series, master)
        lbeq_stepped, _ = idx.posting_matrices()
        lbeq_fresh, _ = fresh.posting_matrices()
        assert (lbeq_stepped <= lbeq_fresh + 1e-9).all()

    def test_interior_rows_equal_fresh(self):
        """Rows away from both master-query ends have no boundary effect."""
        idx, series, master = self._run_steps(6, master_len=16)
        fresh = fresh_index(series, master)
        lbeq_stepped, _ = idx.posting_matrices()
        lbeq_fresh, _ = fresh.posting_matrices()
        rho, n_sw = idx.rho, idx.n_sw
        interior = slice(rho + 1, n_sw - rho)
        np.testing.assert_allclose(
            lbeq_stepped[interior], lbeq_fresh[interior], atol=1e-12
        )

    def test_reuse_counters(self):
        idx, current, _ = self._run_steps(5)
        # Each step rebuilds 1 row fully, refreshes the LB_EQ rows of
        # those of the next rho windows whose envelope the new point
        # changed (up to the last that changed) and reuses the rest.
        length, omega, rho = idx.master_length, idx.omega, idx.rho
        envelopes = [
            compute_envelope(current[current.size - length - 5 + s :][:length], rho)
            for s in range(6)
        ]
        refreshed = []
        for old, new in zip(envelopes, envelopes[1:]):
            changed = np.append(
                (new.upper[:-1] != old.upper[1:]) | (new.lower[:-1] != old.lower[1:]),
                True,
            )
            refreshed.append(max(
                b for b in range(rho + 1)
                if changed[length - omega - b : length - b].any()
            ))
        assert 0 < sum(refreshed) < 5 * rho  # fewer than every window
        assert idx.rows_built_full == idx.n_sw + 5
        assert idx.rows_recomputed_lbeq == sum(refreshed)
        assert idx.rows_reused == 5 * (idx.n_sw - 1) - sum(refreshed)

    def test_series_grows(self):
        idx, series, _ = self._run_steps(8, n=60)
        assert idx.series_length == 68
        np.testing.assert_allclose(idx.series, series)

    def test_new_disjoint_windows_appear(self):
        idx, series, master = self._run_steps(8, n=60, omega=4)
        assert idx.n_dw == 68 // 4
        fresh = fresh_index(series, master)
        assert fresh.n_dw == idx.n_dw

    def test_memory_bytes_positive_and_growing(self):
        series = make_series(64)
        idx = fresh_index(series, series[-12:])
        before = idx.memory_bytes()
        for p in make_series(8, seed=5):
            idx.step(p)
        assert idx.memory_bytes() > before

    def test_step_is_cheaper_than_rebuild(self):
        """Simulated GPU kernel time of a step must undercut a rebuild.

        Launch overhead is zeroed so the comparison isolates the work the
        ring reuse avoids (at paper scale the work term dominates anyway).
        """
        from repro.gpu import DeviceSpec

        series = make_series(12000)
        master = series[-96:]
        device = SimulatedGpuBackend(DeviceSpec(launch_overhead_s=0.0))
        idx = WindowLevelIndex(series, 96, 16, 8, backend=device)
        idx.build(master)
        build_time = device.elapsed_s
        device.reset_time()
        idx.step(0.1)
        step_time = device.elapsed_s
        assert step_time < build_time / 2


class TestBufferGrowth:
    def test_many_steps_grow_series_and_dw_capacity(self):
        """Stepping past the initial buffer must transparently regrow."""
        series = make_series(60)
        idx = fresh_index(series, series[-12:], omega=4, rho=2)
        future = make_series(100, seed=42)
        for p in future:
            idx.step(float(p))
        assert idx.series_length == 160
        assert idx.n_dw == 160 // 4
        # Fresh rebuild agrees on the reusable LB_EC side.
        current = np.concatenate([series, future])
        master = current[-12:]
        fresh = fresh_index(current, master)
        _, lbec_stepped = idx.posting_matrices()
        _, lbec_fresh = fresh.posting_matrices()
        np.testing.assert_allclose(lbec_stepped, lbec_fresh, atol=1e-12)
