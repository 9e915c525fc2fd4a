"""Tests for banded DTW implementations (reference, Algorithm 2, batch)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dtw import (
    dtw_batch,
    dtw_distance,
    dtw_distance_compressed,
    dtw_distance_early_abandon,
)

floats = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def seq(length):
    return arrays(np.float64, (length,), elements=floats)


def dtw_reference_full_matrix(query, candidate, rho):
    """Straight transcription of Eqns. (21)-(24) — O(d^2) memory."""
    d = len(query)
    gamma = np.full((d + 1, d + 1), np.inf)
    gamma[0, 0] = 0.0
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if abs(i - j) > rho:
                continue
            cost = (query[i - 1] - candidate[j - 1]) ** 2
            gamma[i, j] = cost + min(
                gamma[i - 1, j], gamma[i, j - 1], gamma[i - 1, j - 1]
            )
    return gamma[d, d]


class TestDtwBasics:
    def test_identical_sequences_distance_zero(self):
        x = np.array([1.0, 2.0, 3.0, 2.0])
        assert dtw_distance(x, x, rho=1) == 0.0

    def test_known_value_euclidean_when_band_zero(self):
        q = np.array([0.0, 1.0, 2.0])
        c = np.array([1.0, 1.0, 1.0])
        # rho = 0 degenerates to pointwise squared Euclidean distance.
        assert dtw_distance(q, c, rho=0) == pytest.approx(1.0 + 0.0 + 1.0)

    def test_warping_helps(self):
        q = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        c = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        banded = dtw_distance(q, c, rho=1)
        rigid = dtw_distance(q, c, rho=0)
        assert banded < rigid
        assert banded == 0.0

    def test_band_monotonicity(self):
        rng = np.random.default_rng(0)
        q, c = rng.normal(size=20), rng.normal(size=20)
        distances = [dtw_distance(q, c, rho=r) for r in (0, 1, 2, 4, 8, None)]
        assert all(a >= b - 1e-12 for a, b in zip(distances, distances[1:]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dtw_distance(np.arange(3.0), np.arange(4.0))

    def test_empty(self):
        with pytest.raises(ValueError):
            dtw_distance(np.array([]), np.array([]))

    def test_negative_rho(self):
        with pytest.raises(ValueError):
            dtw_distance(np.arange(3.0), np.arange(3.0), rho=-1)


class TestCrossImplementationAgreement:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), length=st.integers(2, 24), rho=st.integers(0, 8))
    def test_compressed_matches_reference(self, data, length, rho):
        q = data.draw(seq(length))
        c = data.draw(seq(length))
        ref = dtw_distance(q, c, rho=rho)
        compressed = dtw_distance_compressed(q, c, rho=rho)
        assert compressed == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), length=st.integers(2, 16), rho=st.integers(0, 5))
    def test_reference_matches_full_matrix(self, data, length, rho):
        q = data.draw(seq(length))
        c = data.draw(seq(length))
        ref = dtw_distance(q, c, rho=rho)
        naive = dtw_reference_full_matrix(q, c, rho)
        assert ref == pytest.approx(naive, rel=1e-12, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), length=st.integers(2, 16), n=st.integers(1, 6))
    def test_batch_matches_scalar(self, data, length, n):
        q = data.draw(seq(length))
        cands = np.stack([data.draw(seq(length)) for _ in range(n)])
        batch = dtw_batch(q, cands, rho=3)
        scalar = [dtw_distance(q, c, rho=3) for c in cands]
        np.testing.assert_array_equal(batch, scalar)

    def test_batch_unbanded(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=12)
        cands = rng.normal(size=(5, 12))
        np.testing.assert_allclose(
            dtw_batch(q, cands, rho=None),
            [dtw_distance(q, c, rho=None) for c in cands],
        )

    def test_batch_empty(self):
        assert dtw_batch(np.arange(3.0), np.empty((0, 3))).size == 0

    def test_batch_shape_mismatch(self):
        with pytest.raises(ValueError):
            dtw_batch(np.arange(3.0), np.empty((2, 4)))


class TestEarlyAbandon:
    def test_matches_reference_when_not_abandoned(self):
        rng = np.random.default_rng(2)
        q, c = rng.normal(size=30), rng.normal(size=30)
        full = dtw_distance(q, c, rho=4)
        assert dtw_distance_early_abandon(q, c, rho=4, best_so_far=np.inf) == (
            pytest.approx(full)
        )

    def test_abandons_when_bound_exceeded(self):
        q = np.zeros(20)
        c = np.full(20, 10.0)
        assert dtw_distance_early_abandon(q, c, rho=4, best_so_far=1.0) == np.inf

    def test_never_underestimates(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q, c = rng.normal(size=15), rng.normal(size=15)
            full = dtw_distance(q, c, rho=3)
            got = dtw_distance_early_abandon(q, c, rho=3, best_so_far=full * 0.5)
            assert got == np.inf or got == pytest.approx(full)
