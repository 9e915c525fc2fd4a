"""Tests for the calibration diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    calibration_error,
    interval_coverage,
    sharpness,
)


def calibrated_sample(n=5000, seed=0):
    """Truths drawn exactly from the claimed predictive distributions."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=n)
    variances = rng.uniform(0.5, 2.0, size=n)
    truth = means + np.sqrt(variances) * rng.normal(size=n)
    return truth, means, variances


class TestCoverage:
    def test_calibrated_model_covers_nominally(self):
        truth, means, variances = calibrated_sample()
        for level in (0.5, 0.9, 0.99):
            cover = interval_coverage(truth, means, variances, level=level)
            assert cover == pytest.approx(level, abs=0.03)

    def test_overconfident_model_undercovers(self):
        truth, means, variances = calibrated_sample(seed=1)
        cover = interval_coverage(truth, means, variances / 9.0, level=0.95)
        assert cover < 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_coverage([0.0], [0.0], [1.0], level=1.0)
        with pytest.raises(ValueError):
            interval_coverage([0.0], [0.0], [0.0])
        with pytest.raises(ValueError):
            interval_coverage([], [], [])
        with pytest.raises(ValueError):
            interval_coverage([0.0, 1.0], [0.0], [1.0])


class TestCalibrationError:
    def test_calibrated_error_near_zero(self):
        truth, means, variances = calibrated_sample(seed=4)
        assert calibration_error(truth, means, variances) < 0.03

    def test_miscalibrated_error_large(self):
        truth, means, variances = calibrated_sample(seed=5)
        assert calibration_error(truth, means, variances * 100) > 0.2

    def test_level_validation(self):
        with pytest.raises(ValueError):
            calibration_error([0.0], [0.0], [1.0], levels=np.array([1.5]))

    @settings(max_examples=15, deadline=None)
    @given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 50))
    def test_scaling_variance_never_improves_calibrated_model(self, scale, seed):
        truth, means, variances = calibrated_sample(n=2000, seed=seed)
        base = calibration_error(truth, means, variances)
        scaled = calibration_error(truth, means, variances * scale)
        if abs(scale - 1.0) > 0.5:
            assert scaled >= base - 0.02


class TestSharpness:
    def test_mean_std(self):
        assert sharpness([4.0, 16.0]) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sharpness([])
        with pytest.raises(ValueError):
            sharpness([-1.0])
