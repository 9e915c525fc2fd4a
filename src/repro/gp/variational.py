"""VLGP: variational sparse GP with inducing inputs (Titsias [65]).

The paper's second scalable-GP baseline (run through GPy's
``SparseGPRegression``).  The collapsed variational lower bound is

    F = log N(y; 0, Q_ff + sigma^2 I) - tr(K_ff - Q_ff) / (2 sigma^2)

i.e. the DTC likelihood minus a trace regulariser that penalises
information lost by the projection.  Inducing inputs are placed by
k-means over the training inputs (GPy's default initialisation) and held
fixed; hyperparameters maximise ``F`` with a fixed Nelder-Mead budget.
"""

from __future__ import annotations

import numpy as np

from .kernels import SquaredExponentialKernel
from .optimize import nelder_mead_minimize
from .sparse import _LowRankPosterior

__all__ = ["VariationalSparseGP", "kmeans"]


def kmeans(
    x: np.ndarray, n_clusters: int, n_iters: int = 20, seed: int = 0
) -> np.ndarray:
    """Plain Lloyd's k-means; returns the ``(n_clusters, dim)`` centroids."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    n_clusters = min(n_clusters, x.shape[0])
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(x.shape[0], size=n_clusters, replace=False)].copy()
    for _ in range(n_iters):
        sq = (
            np.sum(x**2, axis=1)[:, None]
            - 2.0 * x @ centroids.T
            + np.sum(centroids**2, axis=1)[None, :]
        )
        assignment = np.argmin(sq, axis=1)
        moved = False
        for c in range(n_clusters):
            members = x[assignment == c]
            if members.size == 0:
                # Re-seed empty clusters at the farthest point.
                far = int(np.argmax(np.min(sq, axis=1)))
                centroids[c] = x[far]
                moved = True
                continue
            new_centroid = members.mean(axis=0)
            if not np.allclose(new_centroid, centroids[c]):
                centroids[c] = new_centroid
                moved = True
        if not moved:
            break
    return centroids


class VariationalSparseGP:
    """Titsias variational sparse GP with ``m`` inducing inputs."""

    def __init__(
        self,
        n_inducing: int = 32,
        kernel: SquaredExponentialKernel | None = None,
        train_iters: int = 40,
        seed: int = 0,
    ) -> None:
        if n_inducing <= 0:
            raise ValueError(f"n_inducing must be positive, got {n_inducing}")
        self.n_inducing = n_inducing
        self.kernel = kernel or SquaredExponentialKernel()
        self.train_iters = train_iters
        self.seed = seed
        self._posterior: _LowRankPosterior | None = None
        self.bound_evaluations = 0

    def _bound(self, kernel, x, y, x_inducing) -> float:
        post = _LowRankPosterior(kernel, x, y, x_inducing)
        return post.log_marginal_likelihood() - post.trace_correction() / (
            2.0 * kernel.theta2**2
        )

    def fit(self, x: np.ndarray, y: np.ndarray) -> "VariationalSparseGP":
        """Place inducing inputs by k-means, fit hyperparameters on F."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != y.size:
            raise ValueError(f"{x.shape[0]} inputs but {y.size} targets")
        x_inducing = kmeans(x, self.n_inducing, seed=self.seed)

        def objective(log_params: np.ndarray) -> float:
            self.bound_evaluations += 1
            try:
                kernel = SquaredExponentialKernel.from_log_params(log_params)
                return -self._bound(kernel, x, y, x_inducing)
            except np.linalg.LinAlgError:
                return np.inf

        result = nelder_mead_minimize(
            objective, self.kernel.log_params, max_iters=self.train_iters
        )
        self.kernel = SquaredExponentialKernel.from_log_params(result.x)
        self._posterior = _LowRankPosterior(self.kernel, x, y, x_inducing)
        return self

    def predict(
        self, x_star: np.ndarray, include_noise: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gaussian h-step-ahead prediction (see BaseForecaster.predict)."""
        if self._posterior is None:
            raise RuntimeError("fit() must be called first")
        return self._posterior.predict(x_star, include_noise=include_noise)
