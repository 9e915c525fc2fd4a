"""Tests for the least-squares AR(p) fit behind the ``ar`` rung."""

import numpy as np
import pytest

from repro.baselines import fit_ar


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
        model = fit_ar(ar2_stream(100), 2)
        with pytest.raises(ValueError):
            model.forecast(np.arange(1.0), 1)
        with pytest.raises(ValueError):
            model.psi_weights(0)
