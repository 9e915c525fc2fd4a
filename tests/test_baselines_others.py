"""Tests for LazyKNN, Holt-Winters, NysSVR and sparse-GP forecasters."""

import numpy as np
import pytest

from repro.baselines import (
    HoltWintersForecaster,
    LazyKNNForecaster,
    NysSVRForecaster,
    NystromFeatureMap,
    PSGPForecaster,
    ResidualVariance,
    VLGPForecaster,
)
from repro.baselines.holt_winters import fit_holt_winters
from repro.gp.kernels import squared_distances


def seasonal_stream(n=1200, period=24, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (
        np.sin(2 * np.pi * t / period)
        + 0.3 * np.sin(2 * np.pi * t / (period * 7))
        + 0.05 * rng.normal(size=n)
    )


class TestResidualVariance:
    def test_plain_average(self):
        tracker = ResidualVariance()
        tracker.update_many([1.0, -1.0, 1.0, -1.0])
        assert tracker.variance == pytest.approx(1.0)

    def test_decay_adapts(self):
        tracker = ResidualVariance(decay=0.5)
        tracker.update_many([10.0] * 5)
        before = tracker.variance
        tracker.update_many([0.1] * 20)
        assert tracker.variance < before / 100

    def test_prior_variance_when_empty(self):
        assert ResidualVariance().variance == 1.0

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            ResidualVariance(decay=1.5)


class TestLazyKnn:
    def test_predicts_periodic_stream(self):
        stream = seasonal_stream()
        model = LazyKNNForecaster(segment_length=24, k=8, rho=4)
        errors = []
        for t in range(1100, 1180):
            mean, var = model.predict(stream[:t], 1)
            errors.append(abs(mean - stream[t]))
            assert var > 0
        assert float(np.mean(errors)) < 0.15

    def test_variance_is_neighbour_spread(self):
        """On near-deterministic data the kNN targets agree -> tiny var."""
        stream = np.tile(np.sin(np.linspace(0, 2 * np.pi, 50)), 30)
        model = LazyKNNForecaster(segment_length=25, k=4, rho=2)
        _, var = model.predict(stream, 1)
        assert var < 1e-3

    def test_context_too_short(self):
        model = LazyKNNForecaster(segment_length=50, k=4)
        with pytest.raises(ValueError):
            model.predict(np.zeros(55), 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            LazyKNNForecaster(segment_length=0)
        with pytest.raises(ValueError):
            LazyKNNForecaster(k=0)
        with pytest.raises(ValueError):
            LazyKNNForecaster(rho=-1)
        with pytest.raises(ValueError):
            LazyKNNForecaster(segment_length=8).predict(np.zeros(100), 0)


class TestHoltWinters:
    def test_fit_recovers_seasonality(self):
        stream = seasonal_stream(n=600, period=24)
        model = fit_holt_winters(stream, period=24)
        mean, var = model.forecast(1)
        assert abs(mean - np.sin(2 * np.pi * 600 / 24)) < 0.5
        assert var > 0

    def test_variance_grows_with_horizon(self):
        stream = seasonal_stream(n=600, period=24, seed=1)
        model = fit_holt_winters(stream, period=24)
        v1 = model.forecast(1)[1]
        v20 = model.forecast(20)[1]
        assert v20 > v1

    def test_full_vs_seg_names(self):
        assert HoltWintersForecaster(period=24).name == "FullHW"
        assert HoltWintersForecaster(period=24, window=240).name == "SegHW"

    def test_forecaster_tracks_stream(self):
        stream = seasonal_stream(n=900, period=24, seed=2)
        model = HoltWintersForecaster(period=24, window=240, refit_every=8)
        errors = []
        for t in range(700, 780):
            mean, _ = model.predict(stream[:t], 1)
            errors.append(abs(mean - stream[t]))
            model.observe(stream[t])
        assert float(np.mean(errors)) < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            HoltWintersForecaster(period=24, window=30)
        with pytest.raises(ValueError):
            HoltWintersForecaster(period=24, refit_every=0)
        with pytest.raises(ValueError):
            fit_holt_winters(np.zeros(10), period=1)
        with pytest.raises(ValueError):
            fit_holt_winters(np.zeros(10), period=24)
        with pytest.raises(ValueError):
            fit_holt_winters(seasonal_stream(100), period=24).forecast(0)


class TestNystrom:
    def test_feature_map_approximates_rbf(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 4))
        fmap = NystromFeatureMap(landmarks=x[:40], gamma=0.5)
        features = fmap.transform(x)
        approx = features @ features.T
        exact = np.exp(-0.5 * squared_distances(x, x))
        # Landmarks cover the data well, so the approximation is close.
        assert float(np.mean(np.abs(approx - exact))) < 0.05

    def test_forecaster_beats_trivial_on_seasonal(self):
        stream = seasonal_stream(n=900, period=24, seed=3)
        model = NysSVRForecaster(
            segment_length=24, horizons=(1,), rank=48, epochs=8
        )
        model.fit(stream[:700])
        errors, trivial = [], []
        for t in range(700, 780):
            mean, _ = model.predict(stream[:t], 1)
            errors.append(abs(mean - stream[t]))
            trivial.append(abs(stream[t - 1] - stream[t]))
        assert np.mean(errors) < np.mean(trivial)

    def test_validation(self):
        with pytest.raises(ValueError):
            NysSVRForecaster(rank=0)
        with pytest.raises(ValueError):
            NystromFeatureMap(np.zeros((3, 2)), gamma=0.0)
        with pytest.raises(RuntimeError):
            NysSVRForecaster().predict(np.zeros(100), 1)


class TestSparseGpForecasters:
    @pytest.mark.parametrize("cls", [PSGPForecaster, VLGPForecaster])
    def test_fit_predict_seasonal(self, cls):
        stream = seasonal_stream(n=700, period=24, seed=4)
        model = cls(
            segment_length=24, horizons=(1,), n_support=16,
            train_iters=15, max_train=300,
        )
        model.fit(stream[:600])
        errors = []
        for t in range(600, 650):
            mean, var = model.predict(stream[:t], 1)
            errors.append(abs(mean - stream[t]))
            assert var > 0
        assert float(np.mean(errors)) < 0.3

    def test_unknown_horizon(self):
        model = PSGPForecaster(segment_length=12, horizons=(1,), max_train=100)
        model.fit(seasonal_stream(300))
        with pytest.raises(KeyError):
            model.predict(seasonal_stream(300), 9)
