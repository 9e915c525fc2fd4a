"""Tests for exact GP regression (Eqns. 28-31)."""

import numpy as np
import pytest

from repro.gp import GaussianProcessRegressor, SquaredExponentialKernel, robust_cholesky


def toy_problem(n=30, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-3, 3, size=n))[:, None]
    y = np.sin(x[:, 0]) + noise * rng.normal(size=n)
    return x, y


class TestRobustCholesky:
    def test_plain_spd(self):
        mat = np.array([[4.0, 1.0], [1.0, 3.0]])
        lower, jitter = robust_cholesky(mat)
        np.testing.assert_allclose(lower @ lower.T, mat)
        assert jitter == 0.0

    def test_rank_deficient_gets_jitter(self):
        mat = np.ones((5, 5))  # rank 1
        lower, jitter = robust_cholesky(mat)
        assert jitter > 0
        assert np.isfinite(lower).all()

    def test_hopeless_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            robust_cholesky(np.array([[-1e6, 0.0], [0.0, -1e6]]))


class TestFitPredict:
    def test_interpolates_clean_data(self):
        x, y = toy_problem(noise=0.0)
        gp = GaussianProcessRegressor(
            SquaredExponentialKernel(1.0, 1.0, 1e-3)
        ).fit(x, y)
        mean, _ = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-2)

    def test_predictive_variance_grows_away_from_data(self):
        x, y = toy_problem()
        gp = GaussianProcessRegressor(
            SquaredExponentialKernel(1.0, 1.0, 0.05)
        ).fit(x, y)
        _, var_near = gp.predict(np.array([[0.0]]))
        _, var_far = gp.predict(np.array([[30.0]]))
        assert var_far > var_near
        # Far from data the variance reverts to the prior.
        assert var_far[0] == pytest.approx(1.0 + 0.05**2, rel=1e-3)

    def test_include_noise_flag(self):
        x, y = toy_problem()
        kernel = SquaredExponentialKernel(1.0, 1.0, 0.3)
        gp = GaussianProcessRegressor(kernel).fit(x, y)
        _, noisy = gp.predict(np.array([[0.5]]), include_noise=True)
        _, clean = gp.predict(np.array([[0.5]]), include_noise=False)
        assert noisy[0] == pytest.approx(clean[0] + 0.09, abs=1e-9)

    def test_mean_reverts_to_zero_prior(self):
        x, y = toy_problem()
        gp = GaussianProcessRegressor().fit(x, y)
        mean, _ = gp.predict(np.array([[100.0]]))
        assert abs(mean[0]) < 1e-6

    def test_shape_validation(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_duplicate_inputs_do_not_crash(self):
        x = np.zeros((10, 3))
        y = np.random.default_rng(0).normal(size=10)
        gp = GaussianProcessRegressor().fit(x, y)
        mean, var = gp.predict(np.zeros((1, 3)))
        assert np.isfinite(mean).all() and np.isfinite(var).all()

    def test_posterior_matches_direct_formula(self):
        """Eqns. 30/31 computed naively must agree with the Cholesky path."""
        x, y = toy_problem(n=12, seed=3)
        kernel = SquaredExponentialKernel(1.3, 0.8, 0.2)
        gp = GaussianProcessRegressor(kernel).fit(x, y)
        x_star = np.array([[0.3], [-1.7]])
        cov = kernel.matrix(x, noise=True)
        cross = kernel.matrix(x, x_star)
        kinv = np.linalg.inv(cov)
        expected_mean = cross.T @ kinv @ y
        expected_var = (
            kernel.diag(x_star, noise=True)
            - np.sum(cross * (kinv @ cross), axis=0)
        )
        mean, var = gp.predict(x_star)
        np.testing.assert_allclose(mean, expected_mean, rtol=1e-8)
        np.testing.assert_allclose(var, expected_var, rtol=1e-6)


class TestMarginalLikelihood:
    def test_matches_naive_formula(self):
        x, y = toy_problem(n=15, seed=4)
        kernel = SquaredExponentialKernel(1.0, 1.2, 0.15)
        gp = GaussianProcessRegressor(kernel).fit(x, y)
        cov = kernel.matrix(x, noise=True)
        sign, logdet = np.linalg.slogdet(cov)
        expected = -0.5 * (
            y @ np.linalg.solve(cov, y) + logdet + y.size * np.log(2 * np.pi)
        )
        assert gp.log_marginal_likelihood() == pytest.approx(expected, rel=1e-9)

    def test_good_hyperparameters_beat_bad_ones(self):
        x, y = toy_problem(n=40, seed=5)
        good = GaussianProcessRegressor(
            SquaredExponentialKernel(1.0, 1.0, 0.05)
        ).fit(x, y)
        bad = GaussianProcessRegressor(
            SquaredExponentialKernel(1.0, 1e-2, 1.0)
        ).fit(x, y)
        assert good.log_marginal_likelihood() > bad.log_marginal_likelihood()

    def test_kinv(self):
        x, y = toy_problem(n=8)
        kernel = SquaredExponentialKernel()
        gp = GaussianProcessRegressor(kernel).fit(x, y)
        expected = np.linalg.inv(kernel.matrix(x, noise=True))
        np.testing.assert_allclose(gp.kinv(), expected, atol=1e-8)
