"""Tests for simulated GPU kernels and scan baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import NativeBackend, SimulatedGpuBackend
from repro.dtw import dtw_distance, knn_bruteforce
from repro.gpu import fast_gpu_scan, gpu_scan


def make_series(n=300, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(np.arange(n) / 7.0) + 0.1 * rng.normal(size=n)


class TestDtwKernels:
    def test_verification_matches_reference(self):
        rng = np.random.default_rng(0)
        dev = SimulatedGpuBackend()
        q = rng.normal(size=16)
        cands = rng.normal(size=(10, 16))
        got = dev.dtw_verification(q, cands, rho=4)
        expected = [dtw_distance(q, c, rho=4) for c in cands]
        np.testing.assert_allclose(got, expected)
        assert dev.elapsed_s > 0

    def test_full_kernel_matches_unbanded(self):
        rng = np.random.default_rng(1)
        dev = SimulatedGpuBackend()
        q = rng.normal(size=12)
        cands = rng.normal(size=(5, 12))
        got = dev.full_dtw(q, cands)
        expected = [dtw_distance(q, c, rho=None) for c in cands]
        np.testing.assert_allclose(got, expected)

    def test_banded_kernel_cheaper_than_full(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=64)
        cands = rng.normal(size=(512, 64))
        banded_dev, full_dev = SimulatedGpuBackend(), SimulatedGpuBackend()
        banded_dev.dtw_verification(q, cands, rho=8)
        full_dev.full_dtw(q, cands)
        assert banded_dev.elapsed_s < full_dev.elapsed_s / 3

    def test_empty_candidates(self):
        dev = SimulatedGpuBackend()
        assert dev.dtw_verification(np.arange(4.0), np.empty((0, 4)), 2).size == 0
        assert dev.full_dtw(np.arange(4.0), np.empty((0, 4))).size == 0

    def test_one_query_per_candidate_is_one_launch_of_the_same_charge(self):
        """A verification fused across sensors: row i against query i,
        charged by rows and length exactly like the one-query launch."""
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(300, 16))
        cands = rng.normal(size=(300, 16))
        fused, plain = SimulatedGpuBackend(), SimulatedGpuBackend()
        got = fused.dtw_verification(queries, cands, rho=4)
        expected = [dtw_distance(q, c, rho=4) for q, c in zip(queries, cands)]
        np.testing.assert_array_equal(got, expected)
        plain.dtw_verification(queries[0], cands, rho=4)
        assert fused.cost.launches == plain.cost.launches == 1
        assert fused.elapsed_s == plain.elapsed_s


class TestKSelect:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 500),
        k=st.integers(1, 40),
    )
    def test_matches_argsort(self, seed, n, k):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n)
        dev = SimulatedGpuBackend()
        idx = dev.k_select(values, k)
        expected = np.sort(values)[: min(k, n)]
        np.testing.assert_allclose(np.sort(values[idx]), expected)
        assert idx.size == min(k, n)

    def test_handles_ties(self):
        values = np.zeros(100)
        dev = SimulatedGpuBackend()
        idx = dev.k_select(values, 7)
        assert idx.size == 7
        assert len(set(idx.tolist())) == 7

    def test_handles_tight_range(self):
        values = 1.0 + np.arange(50) * 1e-15
        dev = SimulatedGpuBackend()
        idx = dev.k_select(values, 5)
        assert idx.size == 5

    def test_validation(self):
        dev = SimulatedGpuBackend()
        with pytest.raises(ValueError):
            dev.k_select(np.empty(0), 1)
        with pytest.raises(ValueError):
            dev.k_select(np.arange(5.0), 0)
        with pytest.raises(ValueError):
            dev.k_select(np.zeros((2, 2)), 1)

    def test_returns_sorted_by_value(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=200)
        idx = SimulatedGpuBackend().k_select(values, 10)
        assert (np.diff(values[idx]) >= 0).all()

    @pytest.mark.parametrize("backend_cls", [SimulatedGpuBackend, NativeBackend])
    def test_segmented_equals_per_segment(self, backend_cls):
        """Ragged segments, exact ties inside them, ``k`` above some
        segment sizes: each segment's answer is the plain call's."""
        rng = np.random.default_rng(9)
        sizes = [1, 40, 3, 200, 7, 64]
        values = np.round(rng.uniform(0, 3, size=sum(sizes)), 1)
        offsets = np.cumsum([0] + sizes)
        backend = backend_cls()
        for k in (1, 5, 50):
            segmented = backend.k_select(values, k, offsets)
            picks = np.minimum(k, np.diff(offsets))
            assert segmented.shape == (picks.sum(),)
            ends = np.cumsum(picks)
            for lo, hi, end, n in zip(offsets[:-1], offsets[1:], ends, picks):
                np.testing.assert_array_equal(
                    segmented[end - n : end] - lo,
                    backend.k_select(values[lo:hi], k),
                )

    def test_segmented_is_one_launch_charged_at_its_slowest_block(self):
        rng = np.random.default_rng(10)
        sizes = [30, 400, 12]
        values = rng.normal(size=sum(sizes))
        offsets = np.cumsum([0] + sizes)
        fused = SimulatedGpuBackend()
        fused.k_select(values, 8, offsets)
        assert fused.cost.launches == 1
        alone = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            dev = SimulatedGpuBackend()
            dev.k_select(values[lo:hi], 8)
            alone.append(dev.elapsed_s)
        # Three blocks fit one wave: the launch lasts as long as its
        # slowest block would alone — not the sum.
        assert fused.elapsed_s == max(alone) < sum(alone)

    def test_segment_offsets_validation(self):
        dev = SimulatedGpuBackend()
        values = np.arange(6.0)
        for offsets in ([0, 3], [1, 6], [0, 3, 3, 6], [0, 4, 2, 6], [6]):
            with pytest.raises(ValueError, match="offsets"):
                dev.k_select(values, 2, offsets)


class TestScans:
    def test_fast_gpu_scan_matches_bruteforce(self):
        series = make_series()
        query = series[40:72].copy()
        dev = SimulatedGpuBackend()
        got = fast_gpu_scan(dev, query, series, k=5, rho=4)
        expected = knn_bruteforce(query, series, k=5, rho=4)
        np.testing.assert_allclose(np.sort(got.distances), np.sort(expected.distances))

    def test_gpu_scan_unbanded_distances(self):
        series = make_series(150, seed=5)
        query = series[10:26].copy()
        dev = SimulatedGpuBackend()
        got = gpu_scan(dev, query, series, k=3)
        expected = knn_bruteforce(query, series, k=3, rho=None)
        np.testing.assert_allclose(np.sort(got.distances), np.sort(expected.distances))

    def test_fast_scan_faster_than_unbanded(self):
        series = make_series(2000, seed=6)
        query = series[100:164].copy()
        fast_dev, slow_dev = SimulatedGpuBackend(), SimulatedGpuBackend()
        fast_gpu_scan(fast_dev, query, series, k=4, rho=8)
        gpu_scan(slow_dev, query, series, k=4)
        assert fast_dev.elapsed_s < slow_dev.elapsed_s

    def test_exclusion(self):
        series = make_series(400, seed=7)
        query = series[200:232].copy()
        res = fast_gpu_scan(SimulatedGpuBackend(), query, series, k=2, rho=4, exclude=(200, 232))
        for start in res.starts:
            assert start + 32 <= 200 or start >= 232

    def test_query_longer_than_series(self):
        with pytest.raises(ValueError):
            gpu_scan(SimulatedGpuBackend(), np.arange(10.0), np.arange(5.0), k=1)
