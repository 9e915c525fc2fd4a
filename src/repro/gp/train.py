"""Eager GP training: marginal-likelihood maximisation with analytic
gradients (GPML Section 5.4.1).

This is the textbook training the paper's Example 1.1 calls intractable
at scale — O(n^3) per gradient step — provided here (a) as the gold
standard small-data baseline and (b) so the LOO objective of
:mod:`repro.gp.loo` has a sibling to compare against in tests and
ablations.  Gradient (per log-hyperparameter theta_j):

    dL/dtheta_j = 1/2 tr( (alpha alpha^T - K^{-1}) dK/dtheta_j )
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.linalg import cho_solve

from .kernels import SquaredExponentialKernel
from .optimize import conjugate_gradient_minimize
from .regression import GaussianProcessRegressor, robust_cholesky

__all__ = ["marginal_likelihood_objective", "fit_exact_gp"]

logger = logging.getLogger(__name__)


class _MarginalLikelihood:
    """Negative log marginal likelihood of ``(x, y)`` as an optimiser
    objective (:class:`repro.gp.optimize.Objective`): ``value`` keeps the
    kernel, factor and ``alpha`` it computed, ``gradient`` pays for the
    explicit ``K^-1`` and the kernel gradients only where it is asked."""

    def __init__(self, x: np.ndarray, y: np.ndarray, kernel_cls) -> None:
        self._x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self._y = np.asarray(y, dtype=np.float64).ravel()
        self._kernel_cls = kernel_cls
        self._kept: tuple | None = None

    def value(self, log_params: np.ndarray) -> float:
        y = self._y
        kernel = self._kernel_cls.from_log_params(log_params)
        lower, _ = robust_cholesky(kernel.matrix(self._x, noise=True))
        alpha = cho_solve((lower, True), y)
        self._kept = (kernel, lower, alpha)
        return float(
            0.5 * y @ alpha
            + np.sum(np.log(np.diag(lower)))
            + 0.5 * y.size * np.log(2.0 * np.pi)
        )

    def gradient(self) -> np.ndarray:
        if self._kept is None:
            raise RuntimeError("value() must be called first")
        kernel, lower, alpha = self._kept
        kinv = cho_solve((lower, True), np.eye(alpha.size))
        outer = np.outer(alpha, alpha)
        # d(-logML)/dtheta_j = -1/2 tr((alpha alpha^T - K^{-1}) dK).
        return np.array(
            [
                -0.5 * float(np.sum((outer - kinv) * dk))
                for dk in kernel.gradients(self._x)
            ]
        )


def marginal_likelihood_objective(
    log_params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    kernel_cls=SquaredExponentialKernel,
) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood and gradient w.r.t. ``log theta``.

    Works for any kernel class implementing the shared protocol
    (``from_log_params`` / ``matrix`` / ``gradients``) — SE by default.
    """
    objective = _MarginalLikelihood(x, y, kernel_cls)
    return objective.value(log_params), objective.gradient()


def fit_exact_gp(
    x: np.ndarray,
    y: np.ndarray,
    kernel=None,
    max_iters: int = 50,
) -> GaussianProcessRegressor:
    """Train an exact GP by maximising the marginal likelihood.

    Returns a fitted :class:`GaussianProcessRegressor` with the optimised
    kernel (of the same class as the ``kernel`` seed — any protocol
    kernel works).  The CG iterations each cost O(n^3).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] != y.size:
        raise ValueError(f"{x.shape[0]} inputs but {y.size} targets")
    seed_kernel = kernel or SquaredExponentialKernel()
    kernel_cls = type(seed_kernel)
    result = conjugate_gradient_minimize(
        _MarginalLikelihood(x, y, kernel_cls),
        seed_kernel.log_params,
        max_iters=max_iters,
    )
    if not result.converged:
        logger.debug(
            "exact-GP marginal-likelihood training stopped without "
            "convergence after %d/%d iterations (objective %.6g)",
            result.iterations, max_iters, result.value,
        )
    trained = kernel_cls.from_log_params(result.x)
    return GaussianProcessRegressor(trained).fit(x, y)
