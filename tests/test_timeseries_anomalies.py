"""Tests for the anomaly-injection fixture."""

import numpy as np
import pytest

from .anomalies import inject_dropout, inject_level_shift, inject_spike


class TestInjectors:
    def test_spike(self):
        base = np.zeros(10)
        result = inject_spike(base, start=3, magnitude=2.0, length=2)
        np.testing.assert_array_equal(result.values[3:5], [2.0, 2.0])
        assert result.n_affected == 2
        assert base.sum() == 0.0  # original untouched

    def test_level_shift(self):
        base = np.ones(6)
        result = inject_level_shift(base, start=4, magnitude=-1.0)
        np.testing.assert_array_equal(result.values, [1, 1, 1, 1, 0, 0])
        assert result.mask[4:].all() and not result.mask[:4].any()

    def test_dropout(self):
        base = np.arange(8.0)
        result = inject_dropout(base, start=2, length=3, fill=-9.0)
        np.testing.assert_array_equal(result.values[2:5], [-9.0] * 3)
        assert result.n_affected == 3

    def test_spike_clipped_at_end(self):
        result = inject_spike(np.zeros(5), start=4, magnitude=1.0, length=10)
        assert result.n_affected == 1

    def test_validation(self):
        with pytest.raises(IndexError):
            inject_spike(np.zeros(5), start=9, magnitude=1.0)
        with pytest.raises(ValueError):
            inject_spike(np.zeros(5), start=1, magnitude=1.0, length=0)
        with pytest.raises(IndexError):
            inject_level_shift(np.zeros(5), start=-1, magnitude=1.0)
