"""Tests for exact kNN search and the FastCPUScan baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtw import fast_cpu_scan, knn_bruteforce


def make_series(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(np.arange(n) / 5.0) + 0.1 * rng.normal(size=n)


class TestBruteforce:
    def test_finds_planted_match(self):
        series = make_series()
        query = series[50:66].copy()
        result = knn_bruteforce(query, series, k=1, rho=4)
        assert result.starts[0] == 50
        assert result.distances[0] == 0.0

    def test_k_larger_than_candidates(self):
        series = np.arange(10.0)
        result = knn_bruteforce(series[:4], series, k=100, rho=2)
        assert len(result) == 7

    def test_distances_sorted(self):
        series = make_series(300, seed=1)
        result = knn_bruteforce(series[10:42], series, k=8, rho=4)
        assert (np.diff(result.distances) >= 0).all()

    def test_exclusion_zone(self):
        series = make_series()
        query = series[100:132].copy()
        result = knn_bruteforce(query, series, k=3, rho=4, exclude=(100, 132))
        for start in result.starts:
            assert start + 32 <= 100 or start >= 132

    def test_no_candidates_raises(self):
        series = np.arange(8.0)
        with pytest.raises(ValueError):
            knn_bruteforce(series, series, k=1, rho=2, exclude=(0, 8))

    def test_stats_populated(self):
        series = make_series(100)
        result = knn_bruteforce(series[:16], series, k=2, rho=4)
        assert result.stats.candidates_total == 85
        assert result.stats.dtw_cells > 0


class TestFastCpuScan:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        k=st.integers(1, 8),
        rho=st.integers(1, 6),
    )
    def test_matches_bruteforce_distances(self, seed, k, rho):
        rng = np.random.default_rng(seed)
        series = rng.normal(size=120)
        query = rng.normal(size=12)
        exact = knn_bruteforce(query, series, k=k, rho=rho)
        fast = fast_cpu_scan(query, series, k=k, rho=rho)
        # Start indices may differ on exact ties; distances must agree.
        np.testing.assert_allclose(
            np.sort(fast.distances), np.sort(exact.distances), atol=1e-9
        )

    def test_pruning_verifies_fewer_candidates(self):
        series = make_series(2000, seed=2)
        query = series[500:564].copy() + 0.01
        fast = fast_cpu_scan(query, series, k=4, rho=8)
        assert fast.stats.candidates_verified < fast.stats.candidates_total

    def test_exclusion_zone(self):
        series = make_series(400)
        query = series[200:232].copy()
        res = fast_cpu_scan(query, series, k=2, rho=4, exclude=(200, 232))
        for start in res.starts:
            assert start + 32 <= 200 or start >= 232

    def test_planted_match_found(self):
        series = make_series(500, seed=3)
        query = series[123:155].copy()
        res = fast_cpu_scan(query, series, k=1, rho=8)
        assert res.starts[0] == 123
        assert res.distances[0] == 0.0
