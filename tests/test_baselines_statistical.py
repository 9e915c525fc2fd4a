"""Tests for the statistical-regression family: AR/ARI, SES/Holt."""

import numpy as np
import pytest

from repro.baselines import (
    ARForecaster,
    ExponentialSmoothingForecaster,
    fit_ar,
    select_ar_order,
)
from repro.baselines.exponential import HoltLinearTrend, SimpleExponentialSmoothing


def ar2_stream(n=1500, phi=(0.5, 0.3), c=0.1, sigma=0.1, seed=0):
    rng = np.random.default_rng(seed)
    values = [0.0, 0.0]
    for _ in range(n - 2):
        values.append(
            c + phi[0] * values[-1] + phi[1] * values[-2]
            + sigma * rng.normal()
        )
    return np.asarray(values)


class TestFitAr:
    def test_recovers_coefficients(self):
        stream = ar2_stream()
        model = fit_ar(stream, 2)
        np.testing.assert_allclose(model.coefficients, [0.5, 0.3], atol=0.06)
        assert model.intercept == pytest.approx(0.1, abs=0.05)
        assert model.noise_variance == pytest.approx(0.01, rel=0.3)

    def test_order_zero_is_mean_model(self):
        stream = np.array([1.0, 3.0, 2.0, 2.0, 1.0, 3.0])
        model = fit_ar(stream, 0)
        assert model.intercept == pytest.approx(2.0)
        mean, var = model.forecast(stream, 5)
        assert mean == pytest.approx(2.0)
        # iid model: every future value has the same (innovation) variance.
        assert var == pytest.approx(model.noise_variance, rel=1e-6)

    def test_aic_selects_near_true_order(self):
        stream = ar2_stream(n=3000, seed=1)
        model = select_ar_order(stream, max_order=8)
        assert 2 <= model.order <= 4

    def test_psi_weights_ar1(self):
        stream = 0.8 ** np.arange(50) + np.random.default_rng(2).normal(0, 0.01, 50)
        model = fit_ar(ar2_stream(2000, phi=(0.7, 0.0), seed=3), 1)
        psi = model.psi_weights(4)
        phi = model.coefficients[0]
        np.testing.assert_allclose(psi, [1, phi, phi**2, phi**3], rtol=1e-9)

    def test_forecast_variance_grows(self):
        model = fit_ar(ar2_stream(seed=4), 2)
        context = ar2_stream(100, seed=5)
        v1 = model.forecast(context, 1)[1]
        v10 = model.forecast(context, 10)[1]
        assert v10 > v1

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_ar(np.arange(3.0), 5)
        with pytest.raises(ValueError):
            fit_ar(np.arange(10.0), -1)
        with pytest.raises(ValueError):
            select_ar_order(np.arange(1.0))
        model = fit_ar(ar2_stream(100), 2)
        with pytest.raises(ValueError):
            model.forecast(np.arange(1.0), 1)
        with pytest.raises(ValueError):
            model.psi_weights(0)


class TestARForecaster:
    def test_tracks_ar_stream(self):
        stream = ar2_stream(seed=6)
        model = ARForecaster(max_order=6).fit(stream[:1200])
        errors = []
        for t in range(1200, 1300):
            mean, var = model.predict(stream[:t], 1)
            errors.append(abs(mean - stream[t]))
            assert var > 0
        assert float(np.mean(errors)) < 0.12

    def test_differencing_handles_random_walk(self):
        rng = np.random.default_rng(7)
        walk = np.cumsum(0.1 * rng.normal(size=2000)) + 5.0
        model = ARForecaster(max_order=4, d_diff=1).fit(walk[:1800])
        mean, var = model.predict(walk[:1900], 1)
        # A random walk's best 1-step forecast is close to the last value.
        assert abs(mean - walk[1899]) < 0.5
        v5 = model.predict(walk[:1900], 5)[1]
        assert v5 > var

    def test_refit_every(self):
        stream = ar2_stream(seed=8)
        model = ARForecaster(max_order=4, refit_every=5).fit(stream[:1000])
        for t in range(1000, 1012):
            model.predict(stream[:t], 1)
            model.observe(stream[t])

    def test_validation(self):
        with pytest.raises(ValueError):
            ARForecaster(d_diff=2)
        with pytest.raises(ValueError):
            ARForecaster(max_order=0)
        with pytest.raises(RuntimeError):
            ARForecaster().predict(np.zeros(100), 1)


class TestExponentialSmoothing:
    def test_ses_level_tracks_mean_shift(self):
        values = np.concatenate([np.zeros(100), np.full(100, 5.0)])
        values += 0.01 * np.random.default_rng(9).normal(size=200)
        model = SimpleExponentialSmoothing.fit(values)
        assert model.forecast(1)[0] == pytest.approx(5.0, abs=0.3)

    def test_holt_extrapolates_trend(self):
        t = np.arange(200.0)
        values = 0.5 * t + 0.05 * np.random.default_rng(10).normal(size=200)
        model = HoltLinearTrend.fit(values)
        mean10, _ = model.forecast(10)
        assert mean10 == pytest.approx(0.5 * 209, rel=0.05)

    def test_variance_monotone_in_horizon(self):
        values = np.random.default_rng(11).normal(size=100)
        for model in (
            SimpleExponentialSmoothing.fit(values),
            HoltLinearTrend.fit(values),
        ):
            variances = [model.forecast(h)[1] for h in (1, 5, 20)]
            assert variances[0] <= variances[1] <= variances[2]

    def test_forecaster_protocol(self):
        rng = np.random.default_rng(12)
        stream = np.sin(np.arange(300) / 10.0) + 0.05 * rng.normal(size=300)
        model = ExponentialSmoothingForecaster(trend=True, refit_every=4)
        errors = []
        for t in range(250, 290):
            mean, var = model.predict(stream[:t], 1)
            errors.append(abs(mean - stream[t]))
            model.observe(stream[t])
            assert var > 0
        assert float(np.mean(errors)) < 0.3

    def test_names(self):
        assert ExponentialSmoothingForecaster().name == "SES"
        assert ExponentialSmoothingForecaster(trend=True).name == "Holt"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialSmoothingForecaster(window=2)
        with pytest.raises(ValueError):
            ExponentialSmoothingForecaster(refit_every=0)
        with pytest.raises(ValueError):
            SimpleExponentialSmoothing.fit(np.zeros(2))
        with pytest.raises(ValueError):
            HoltLinearTrend.fit(np.zeros(3))
        model = SimpleExponentialSmoothing.fit(np.random.default_rng(0).normal(size=30))
        with pytest.raises(ValueError):
            model.forecast(0)
