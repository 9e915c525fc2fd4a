"""Exact Gaussian Process regression (Appendix B.3, Eqns. 28-31).

Implements the closed-form posterior the semi-lazy GP predictor relies
on: with training data ``(X, Y)`` and covariance ``C`` (noise on the
diagonal), a test input ``x0`` gets

    u0      = c0^T C^{-1} Y                       (Eqn. 30)
    sigma0² = c(x0, x0) - c0^T C^{-1} c0          (Eqn. 31)

Cholesky-based with escalating jitter for numerical robustness (kNN
segments can be near-duplicates, making ``C`` badly conditioned).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

from ..tolerances import CHOLESKY_JITTERS
from .kernels import SquaredExponentialKernel

__all__ = ["GaussianProcessRegressor", "robust_cholesky"]


def _potrf(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """LAPACK ``dpotrf`` (lower, upper triangle zeroed) behind the checks
    ``scipy.linalg.cholesky`` made: ``info > 0`` (not positive definite)
    is returned for the caller to act on."""
    if not np.isfinite(matrix).all():
        raise ValueError("matrix must not contain infs or NaNs")
    lower, info = dpotrf(matrix, lower=1, clean=1)
    if info < 0:
        raise ValueError(f"LAPACK dpotrf: illegal value in argument {-info}")
    return lower, info


def robust_cholesky(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor with escalating diagonal jitter.

    Returns ``(L, jitter)``; raises :class:`numpy.linalg.LinAlgError` only
    if even the largest jitter fails (pathological input) and
    :class:`ValueError` for a matrix that is not square or not finite.

    Calls LAPACK ``dpotrf`` itself — the routine ``scipy.linalg.cholesky``
    dispatches to for float64, on the same operand, so the factor is the
    same to the bit — because this runs once per LOO objective evaluation
    on a matrix of at most 32 x 32, where SciPy's Python wrapper cost many
    times the factorisation.  The jitter scale, the identity and the sum
    are formed only if the matrix as given does not factorise.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    lower, info = _potrf(matrix)
    if info == 0:
        return lower, 0.0
    scale = float(np.mean(np.diag(matrix))) or 1.0
    eye = np.eye(matrix.shape[0])
    for jitter in CHOLESKY_JITTERS:
        lower, info = _potrf(matrix + jitter * scale * eye)
        if info == 0:
            return lower, jitter * scale
    raise np.linalg.LinAlgError(
        "matrix is not positive definite even with jitter"
    )


class GaussianProcessRegressor:
    """Zero-mean exact GP with the paper's SE+noise kernel."""

    def __init__(self, kernel: SquaredExponentialKernel | None = None) -> None:
        self.kernel = kernel or SquaredExponentialKernel()
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._lower: np.ndarray | None = None
        self._alpha: np.ndarray | None = None

    # ----------------------------------------------------------------- fit
    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Factorise the training covariance; O(n^3) — the paper's whole
        point is keeping n down to the kNN count."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != y.size:
            raise ValueError(
                f"{x.shape[0]} inputs but {y.size} targets"
            )
        if y.size == 0:
            raise ValueError("cannot fit a GP on zero points")
        cov = self.kernel.matrix(x, noise=True)
        self._lower, _ = robust_cholesky(cov)
        self._alpha = cho_solve((self._lower, True), y)
        self._x, self._y = x, y
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether fit() has been called."""
        return self._alpha is not None

    def _require_fit(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("fit() must be called first")

    # ------------------------------------------------------------- predict
    def predict(
        self, x_star: np.ndarray, include_noise: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at test inputs.

        ``include_noise=True`` returns the predictive variance of the
        *observation* (adds ``theta2^2``), which is what MNLPD scores.
        """
        self._require_fit()
        x_star = np.atleast_2d(np.asarray(x_star, dtype=np.float64))
        cross = self.kernel.matrix(self._x, x_star)
        mean = cross.T @ self._alpha
        v = cho_solve((self._lower, True), cross)
        prior = self.kernel.diag(x_star, noise=include_noise)
        var = prior - np.sum(cross * v, axis=0)
        return mean, np.clip(var, 1e-12, None)

    # -------------------------------------------------------- marginal lik
    def log_marginal_likelihood(self) -> float:
        """``log p(Y | X, Theta)`` of the fitted model."""
        self._require_fit()
        n = self._y.size
        return float(
            -0.5 * self._y @ self._alpha
            - np.sum(np.log(np.diag(self._lower)))
            - 0.5 * n * np.log(2.0 * np.pi)
        )

    @property
    def alpha(self) -> np.ndarray:
        """``C^{-1} Y`` of the fitted model."""
        self._require_fit()
        return self._alpha
