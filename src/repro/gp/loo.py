"""Leave-one-out predictive likelihood and its gradients (Section 5.2.2).

The semi-lazy GP trains its hyperparameters by maximising the LOO log
predictive probability (paper Eqns. 19-20, following Sundararajan &
Keerthi [64] / GPML Section 5.4.2).  The "inversion of the partitioned
matrix" trick the paper cites is exactly the identity used here: with
``Kinv = C^{-1}`` and ``alpha = C^{-1} y``,

    mu_i      = y_i - alpha_i / Kinv_ii
    sigma_i^2 = 1 / Kinv_ii

so all n leave-one-out posteriors come from ONE factorisation instead of
n rank-down-dated ones.  Gradients w.r.t. ``log theta_j`` follow GPML
Eqn. 5.13 and are verified against finite differences in the tests.

All of it lives in :class:`LooProblem`: one object per training call that
holds what the hyperparameters cannot change (the pairwise squared
distances, the targets, the identity) and splits an evaluation into the
value every line-search candidate needs and the gradient only an accepted
one does.  :func:`loo_quantities`, :func:`loo_log_likelihood` and
:func:`loo_objective` are one-shot views of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .kernels import SquaredExponentialKernel, squared_distances
from .regression import robust_cholesky

__all__ = [
    "LooProblem",
    "LooResult",
    "loo_quantities",
    "loo_log_likelihood",
    "loo_objective",
]

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class LooResult:
    """LOO means/variances plus the total log predictive likelihood."""

    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float


class LooProblem:
    """The LOO training problem of one ``(inputs, targets)`` set.

    Implements the objective protocol of
    :func:`repro.gp.optimize.conjugate_gradient_minimize`:
    :meth:`value` at any point, :meth:`gradient` at the point last valued
    (it reuses that evaluation's SE matrix, ``K^-1``, ``alpha`` and
    diagonal).  Every operand reaches every LAPACK / BLAS / ufunc call
    with the values and in the order the one-evaluation-at-a-time code
    had, so values and gradients are bit-identical to it.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self._y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != self._y.size:
            raise ValueError(f"{x.shape[0]} inputs but {self._y.size} targets")
        self._sq = squared_distances(x, x)
        self._exponent = -0.5 * self._sq  # times 1 / theta1^2, per evaluation
        self._eye = np.eye(self._y.size)
        self._kept: tuple | None = None

    def evaluate(self, kernel: SquaredExponentialKernel) -> LooResult:
        """LOO posterior of every held-out point under ``kernel`` (Eqn. 19,
        GPML eq. 5.10-5.12); the point :meth:`gradient` then refers to."""
        y = self._y
        se = kernel.theta0**2 * np.exp(self._exponent / kernel.theta1**2)
        lower, _ = robust_cholesky(se + kernel.theta2**2 * self._eye)
        kinv, info = dpotrs(lower, self._eye, lower=1)
        if info != 0:
            raise ValueError(f"LAPACK dpotrs: illegal value in argument {-info}")
        alpha = kinv @ y
        diag = np.maximum(kinv.diagonal(), 1e-300)
        variances = 1.0 / diag
        means = y - alpha / diag
        logp = (
            -0.5 * np.log(variances)
            - (y - means) ** 2 / (2.0 * variances)
            - 0.5 * _LOG_2PI
        )
        self._kept = (kernel, se, kinv, alpha, diag)
        return LooResult(means, variances, float(logp.sum()))

    def value(self, log_params: np.ndarray) -> float:
        """Negative LOO log likelihood at ``log theta`` (the optimiser
        minimises, hence the sign)."""
        kernel = SquaredExponentialKernel.from_log_params(log_params)
        return -self.evaluate(kernel).log_likelihood

    def gradient(self) -> np.ndarray:
        """Gradient w.r.t. ``log theta`` at the point last evaluated.

        GPML eq. 5.13: for each hyperparameter j with
        ``Z_j = Kinv dK/dtheta_j``,

            dL/dtheta_j = sum_i [ alpha_i (Z_j alpha)_i
                          - 0.5 (1 + alpha_i^2 / Kinv_ii) (Z_j Kinv)_ii ]
                          / Kinv_ii
        """
        if self._kept is None:
            raise RuntimeError("value() or evaluate() must be called first")
        kernel, se, kinv, alpha, diag = self._kept
        kernel_grads = (
            2.0 * se,
            se * (self._sq / kernel.theta1**2),
            2.0 * kernel.theta2**2 * self._eye,
        )
        grads = np.empty(3)
        for j, dk in enumerate(kernel_grads):
            zj = kinv @ dk
            zj_alpha = zj @ alpha
            zj_kinv_diag = np.sum(zj * kinv.T, axis=1)
            per_point = (
                alpha * zj_alpha - 0.5 * (1.0 + alpha**2 / diag) * zj_kinv_diag
            ) / diag
            grads[j] = -float(per_point.sum())
        return grads


def loo_quantities(
    kernel: SquaredExponentialKernel, x: np.ndarray, y: np.ndarray
) -> LooResult:
    """LOO posterior for every held-out training point (Eqn. 19)."""
    return LooProblem(x, y).evaluate(kernel)


def loo_log_likelihood(
    kernel: SquaredExponentialKernel, x: np.ndarray, y: np.ndarray
) -> float:
    """``L(X, Y, Theta)`` of Eqn. 20."""
    return loo_quantities(kernel, x, y).log_likelihood


def loo_objective(
    log_params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Negative LOO log likelihood and gradient w.r.t. ``log theta``:
    one evaluation of a :class:`LooProblem` built for the purpose."""
    problem = LooProblem(x, y)
    return problem.value(log_params), problem.gradient()
