"""Tests for the sparse GP approximations (PSGP and VLGP)."""

import numpy as np
import pytest

from repro.gp import (
    GaussianProcessRegressor,
    ProjectedSparseGP,
    SquaredExponentialKernel,
    VariationalSparseGP,
    kmeans,
    select_active_points,
)


def toy_problem(n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-4, 4, size=n))[:, None]
    y = np.sin(1.5 * x[:, 0]) + 0.1 * rng.normal(size=n)
    return x, y


class TestSelection:
    def test_active_points_subset(self):
        x = np.arange(50.0)[:, None]
        active = select_active_points(x, 10, seed=1)
        assert active.shape == (10, 1)
        assert set(active[:, 0]).issubset(set(x[:, 0]))

    def test_active_points_capped(self):
        x = np.arange(5.0)[:, None]
        assert select_active_points(x, 99).shape == (5, 1)

    def test_active_points_validation(self):
        with pytest.raises(ValueError):
            select_active_points(np.zeros((5, 1)), 0)

    def test_kmeans_centroids_shape(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(-5, 0.1, (30, 2)), rng.normal(5, 0.1, (30, 2))])
        centroids = kmeans(x, 2, seed=0)
        assert centroids.shape == (2, 2)
        # One centroid near each blob.
        signs = sorted(np.sign(centroids[:, 0]))
        assert signs == [-1.0, 1.0]

    def test_kmeans_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((4, 2)), 0)


class TestProjectedSparseGP:
    def test_fit_predict_reasonable(self):
        x, y = toy_problem()
        model = ProjectedSparseGP(n_active=24, train_iters=30).fit(x, y)
        mean, var = model.predict(x)
        mae = float(np.mean(np.abs(mean - y)))
        assert mae < 0.25
        assert (var > 0).all()

    def test_more_active_points_fit_better(self):
        x, y = toy_problem(n=200, seed=1)
        coarse = ProjectedSparseGP(n_active=4, train_iters=25, seed=2).fit(x, y)
        fine = ProjectedSparseGP(n_active=64, train_iters=25, seed=2).fit(x, y)
        mae_coarse = float(np.mean(np.abs(coarse.predict(x)[0] - y)))
        mae_fine = float(np.mean(np.abs(fine.predict(x)[0] - y)))
        assert mae_fine < mae_coarse

    def test_likelihood_cost_scales_with_active_points(self):
        """Fig. 13's x-axis knob drives the O(n m^2) training cost."""
        x, y = toy_problem(n=150)
        small = ProjectedSparseGP(n_active=8, train_iters=20)
        small.fit(x, y)
        assert small.likelihood_evaluations > 0

    def test_full_rank_matches_exact_gp(self):
        """With m = n and shared kernel, DTC equals the exact GP."""
        x, y = toy_problem(n=25, seed=3)
        kernel = SquaredExponentialKernel(1.0, 1.0, 0.2)
        sparse = ProjectedSparseGP(n_active=25, kernel=kernel, train_iters=0)
        # Bypass training: fit with zero NM iterations keeps the kernel.
        sparse.fit(x, y)
        exact = GaussianProcessRegressor(sparse.kernel).fit(x, y)
        x_star = np.linspace(-3, 3, 7)[:, None]
        mean_s, var_s = sparse.predict(x_star)
        mean_e, var_e = exact.predict(x_star)
        np.testing.assert_allclose(mean_s, mean_e, atol=1e-5)
        np.testing.assert_allclose(var_s, var_e, atol=1e-4)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            ProjectedSparseGP().predict(np.zeros((1, 1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            ProjectedSparseGP(n_active=0)
        with pytest.raises(ValueError):
            ProjectedSparseGP().fit(np.zeros((3, 1)), np.zeros(4))


class TestVariationalSparseGP:
    def test_fit_predict_reasonable(self):
        x, y = toy_problem(seed=4)
        model = VariationalSparseGP(n_inducing=24, train_iters=30).fit(x, y)
        mae = float(np.mean(np.abs(model.predict(x)[0] - y)))
        assert mae < 0.25

    def test_elbo_below_exact_marginal_likelihood(self):
        """Titsias' F is a lower bound of the exact log evidence."""
        x, y = toy_problem(n=60, seed=5)
        model = VariationalSparseGP(n_inducing=10, train_iters=25).fit(x, y)
        exact = GaussianProcessRegressor(model.kernel).fit(x, y)
        # F at the fitted kernel, over the inducing inputs fit() placed.
        bound = model._bound(model.kernel, x, y, kmeans(x, 10, seed=model.seed))
        assert bound <= exact.log_marginal_likelihood() + 1e-6

    def test_more_inducing_raises_elbo(self):
        x, y = toy_problem(n=100, seed=6)
        kernel = SquaredExponentialKernel(1.0, 1.0, 0.2)
        few = VariationalSparseGP(n_inducing=3, kernel=kernel, train_iters=0).fit(x, y)
        many = VariationalSparseGP(n_inducing=50, kernel=kernel, train_iters=0).fit(x, y)
        bounds = [
            model._bound(model.kernel, x, y, kmeans(x, model.n_inducing))
            for model in (few, many)
        ]
        assert bounds[1] >= bounds[0] - 1e-6

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            VariationalSparseGP().predict(np.zeros((1, 1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            VariationalSparseGP(n_inducing=-1)
