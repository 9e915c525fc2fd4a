"""Tests for LOO predictive likelihood and its gradients (Eqns. 19-20)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp import (
    GaussianProcessRegressor,
    LooProblem,
    SquaredExponentialKernel,
    loo_log_likelihood,
    loo_objective,
    loo_quantities,
)


def toy_problem(n=20, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, size=(n, 2))
    y = np.sin(x[:, 0]) * np.cos(x[:, 1]) + 0.1 * rng.normal(size=n)
    return x, y


class TestLooQuantities:
    def test_matches_explicit_leave_one_out(self):
        """The partitioned-inverse shortcut equals n separate GP fits."""
        x, y = toy_problem(n=12, seed=1)
        kernel = SquaredExponentialKernel(1.0, 1.5, 0.2)
        result = loo_quantities(kernel, x, y)
        for i in range(y.size):
            keep = np.arange(y.size) != i
            gp = GaussianProcessRegressor(kernel).fit(x[keep], y[keep])
            mean, var = gp.predict(x[i : i + 1], include_noise=True)
            assert result.means[i] == pytest.approx(mean[0], rel=1e-6, abs=1e-8)
            assert result.variances[i] == pytest.approx(var[0], rel=1e-6)

    def test_log_likelihood_is_sum_of_log_densities(self):
        x, y = toy_problem(n=10, seed=2)
        kernel = SquaredExponentialKernel()
        result = loo_quantities(kernel, x, y)
        expected = sum(
            -0.5 * np.log(2 * np.pi * v) - (yy - m) ** 2 / (2 * v)
            for yy, m, v in zip(y, result.means, result.variances)
        )
        assert result.log_likelihood == pytest.approx(expected)

    def test_good_kernel_scores_higher(self):
        x, y = toy_problem(n=40, seed=3)
        good = loo_log_likelihood(SquaredExponentialKernel(1.0, 1.5, 0.1), x, y)
        bad = loo_log_likelihood(SquaredExponentialKernel(1.0, 1e-3, 2.0), x, y)
        assert good > bad


class TestLooObjective:
    def test_value_is_negated_likelihood(self):
        x, y = toy_problem(n=15, seed=4)
        kernel = SquaredExponentialKernel(0.9, 1.1, 0.15)
        value, _ = loo_objective(kernel.log_params, x, y)
        assert value == pytest.approx(-loo_log_likelihood(kernel, x, y))

    @settings(max_examples=15, deadline=None)
    @given(
        log_params=st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3
        ),
        seed=st.integers(0, 50),
    )
    def test_gradient_matches_finite_differences(self, log_params, seed):
        x, y = toy_problem(n=10, seed=seed)
        log_params = np.asarray(log_params)
        _, grad = loo_objective(log_params, x, y)
        eps = 1e-5
        for j in range(3):
            lp = log_params.copy()
            lp[j] += eps
            up, _ = loo_objective(lp, x, y)
            lp[j] -= 2 * eps
            down, _ = loo_objective(lp, x, y)
            fd = (up - down) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=2e-3, abs=1e-5)
        # The same through one problem object, as training uses it: the
        # gradient belongs to the point last valued, whatever came before.
        problem = LooProblem(x, y)
        problem.value(log_params + 0.5)
        problem.value(log_params)
        grad = problem.gradient()
        for j in range(3):
            lp = log_params.copy()
            lp[j] += eps
            up = problem.value(lp)
            lp[j] -= 2 * eps
            down = problem.value(lp)
            fd = (up - down) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=2e-3, abs=1e-5)

    def test_descending_gradient_improves_objective(self):
        x, y = toy_problem(n=25, seed=6)
        log_params = np.array([0.5, -0.5, 0.5])
        value, grad = loo_objective(log_params, x, y)
        stepped, _ = loo_objective(log_params - 1e-3 * grad, x, y)
        assert stepped < value
