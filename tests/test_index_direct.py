"""Tests for the SMiLer-Dir direct LB_en computation."""

import numpy as np
import pytest

from repro.backend import SimulatedGpuBackend
from repro.dtw import compute_envelope, dtw_distance, lb_profile
from repro.index import direct_lb_en


def make_series(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(np.arange(n) / 6.0) + 0.2 * rng.normal(size=n)


class TestDirectLbEn:
    def test_matches_lb_profile(self):
        series = make_series()
        master = series[-24:]
        result = direct_lb_en(SimulatedGpuBackend(), master, series, (12, 24), rho=3)
        for d in (12, 24):
            query = master[master.size - d :]
            lbeq, lbec = lb_profile(query, series, 3)
            np.testing.assert_allclose(result[d], np.maximum(lbeq, lbec))

    def test_bounds_hold(self):
        series = make_series(seed=1)
        master = series[-16:]
        result = direct_lb_en(SimulatedGpuBackend(), master, series, (8, 16), rho=2)
        for d in (8, 16):
            query = master[master.size - d :]
            for t in range(0, series.size - d + 1, 7):
                dist = dtw_distance(query, series[t : t + d], rho=2)
                assert result[d][t] <= dist + 1e-9

    def test_accounts_device_time(self):
        series = make_series()
        device = SimulatedGpuBackend()
        direct_lb_en(device, series[-16:], series, (8, 16), rho=2)
        assert device.elapsed_s > 0
        assert "direct_lb_en" in device.cost.per_kernel_s

    def test_duplicate_lengths_deduplicated(self):
        series = make_series()
        result = direct_lb_en(
            SimulatedGpuBackend(), series[-16:], series, (8, 8, 16), rho=2
        )
        assert set(result) == {8, 16}
