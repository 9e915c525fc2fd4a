"""Tests for repro.timeseries.series."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.timeseries import (
    TimeSeries,
    ZNormStats,
    segment_matrix,
    sliding_segments,
    train_test_split_tail,
)
from repro.tolerances import STD_FLOOR


class TestTimeSeries:
    def test_len_and_values(self):
        ts = TimeSeries([1.0, 2.0, 3.0])
        assert len(ts) == 3
        np.testing.assert_array_equal(ts.values, [1.0, 2.0, 3.0])

    def test_values_view_is_read_only(self):
        ts = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_append_grows_buffer(self):
        ts = TimeSeries([])
        for i in range(200):
            ts.append(float(i))
        assert len(ts) == 200
        np.testing.assert_array_equal(ts.values, np.arange(200.0))

    def test_extend(self):
        ts = TimeSeries([0.0])
        ts.extend([1.0, 2.0])
        np.testing.assert_array_equal(ts.values, [0.0, 1.0, 2.0])


class TestZNorm:
    def test_roundtrip(self):
        ts = TimeSeries([5.0, 7.0, 9.0, 11.0])
        stats = ZNormStats.of(ts.values)
        z = stats.apply(ts.values)
        np.testing.assert_allclose(stats.invert(z), ts.values)

    def test_normalised_stats(self):
        ts = TimeSeries(np.random.default_rng(0).normal(3.0, 2.0, size=500))
        z = ZNormStats.of(ts.values).apply(ts.values)
        assert abs(float(np.mean(z))) < 1e-9
        assert abs(float(np.std(z)) - 1.0) < 1e-9

    def test_constant_series_does_not_divide_by_zero(self):
        ts = TimeSeries([4.0, 4.0, 4.0])
        stats = ZNormStats.of(ts.values)
        assert stats == ZNormStats(4.0, STD_FLOOR)
        z = stats.apply(ts.values)
        assert np.isfinite(z).all()

    def test_invert_variance(self):
        stats = ZNormStats(mean=0.0, std=3.0)
        np.testing.assert_allclose(stats.invert_variance(np.array([2.0])), [18.0])


class TestSegmentHelpers:
    def test_sliding_segments_shape(self):
        segs = sliding_segments(np.arange(10.0), 4)
        assert segs.shape == (7, 4)
        np.testing.assert_array_equal(segs[2], [2.0, 3.0, 4.0, 5.0])

    def test_sliding_segments_bad_length(self):
        with pytest.raises(ValueError):
            sliding_segments(np.arange(3.0), 5)
        with pytest.raises(ValueError):
            sliding_segments(np.arange(3.0), 0)

    def test_segment_matrix_targets(self):
        values = np.arange(10.0)
        X, y, starts = segment_matrix(values, length=3, horizon=2)
        # segment starting at t covers t..t+2, target is value at t+2+2.
        assert X.shape == (6, 3)
        np.testing.assert_array_equal(y, values[4:10])
        np.testing.assert_array_equal(starts, np.arange(6))

    def test_segment_matrix_horizon_validation(self):
        with pytest.raises(ValueError):
            segment_matrix(np.arange(10.0), 3, 0)

    def test_segment_matrix_too_short(self):
        with pytest.raises(ValueError):
            segment_matrix(np.arange(4.0), 3, 5)

    @given(
        n=st.integers(10, 60),
        d=st.integers(1, 8),
        h=st.integers(1, 5),
    )
    def test_segment_matrix_alignment_property(self, n, d, h):
        values = np.arange(float(n))
        if n - d - h + 1 <= 0:
            with pytest.raises(ValueError):
                segment_matrix(values, d, h)
            return
        X, y, starts = segment_matrix(values, d, h)
        for j in range(X.shape[0]):
            t = starts[j]
            np.testing.assert_array_equal(X[j], values[t : t + d])
            assert y[j] == values[t + d - 1 + h]


class TestSplit:
    def test_tail_split(self):
        train, test = train_test_split_tail(np.arange(10.0), 3)
        np.testing.assert_array_equal(train, np.arange(7.0))
        np.testing.assert_array_equal(test, [7.0, 8.0, 9.0])

    def test_tail_split_validation(self):
        with pytest.raises(ValueError):
            train_test_split_tail(np.arange(5.0), 5)
        with pytest.raises(ValueError):
            train_test_split_tail(np.arange(5.0), 0)
