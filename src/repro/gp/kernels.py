"""Covariance functions for the GP stack (Appendix B.3, Eqn. 18).

The paper uses the squared-exponential (SE) covariance with three
hyperparameters ``Theta = {theta0, theta1, theta2}``::

    c(xa, xb) = theta0^2 * exp(-||xa - xb||^2 / (2 * theta1^2))
                + delta_ab * theta2^2

``theta0`` is the signal amplitude, ``theta1`` the characteristic
length-scale, ``theta2`` the observation-noise amplitude.  All training
and optimisation happens in log-space (positivity for free); gradients
returned here are with respect to ``log theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SquaredExponentialKernel", "squared_distances"]


def squared_distances(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape ``(len(xa), len(xb))``."""
    xa = np.atleast_2d(np.asarray(xa, dtype=np.float64))
    xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
    if xa.shape[1] != xb.shape[1]:
        raise ValueError(
            f"dimension mismatch: {xa.shape[1]} vs {xb.shape[1]}"
        )
    aa = np.sum(xa**2, axis=1)[:, None]
    bb = np.sum(xb**2, axis=1)[None, :]
    sq = aa + bb - 2.0 * (xa @ xb.T)
    return np.clip(sq, 0.0, None)


@dataclass(frozen=True)
class SquaredExponentialKernel:
    """SE covariance with additive iid noise (paper Eqn. 18)."""

    theta0: float = 1.0
    theta1: float = 1.0
    theta2: float = 0.1

    def __post_init__(self) -> None:
        for name in ("theta0", "theta1", "theta2"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    # ------------------------------------------------------------ log-space
    @property
    def log_params(self) -> np.ndarray:
        """Current hyperparameters in log space."""
        return np.log([self.theta0, self.theta1, self.theta2])

    @classmethod
    def from_log_params(cls, log_params: np.ndarray) -> "SquaredExponentialKernel":
        """Rebuild the kernel from log-hyperparameters."""
        log_params = np.asarray(log_params, dtype=np.float64)
        if log_params.shape != (3,):
            raise ValueError(f"expected 3 log-parameters, got shape {log_params.shape}")
        t0, t1, t2 = np.exp(log_params.clip(-20.0, 20.0))
        return cls(theta0=float(t0), theta1=float(t1), theta2=float(t2))

    # ------------------------------------------------------------- matrices
    def matrix(
        self, xa: np.ndarray, xb: np.ndarray | None = None, noise: bool = False
    ) -> np.ndarray:
        """Covariance matrix ``C(xa, xb)``; ``noise`` adds ``theta2^2 I``.

        ``noise=True`` is only valid for the symmetric case (``xb is
        None``): the Kronecker delta of Eqn. 18 refers to identical
        *indices*, i.e. the same training point.
        """
        sq = squared_distances(xa, xa if xb is None else xb)
        cov = self.theta0**2 * np.exp(-0.5 * sq / self.theta1**2)
        if noise:
            if xb is not None:
                raise ValueError("noise only applies to the symmetric matrix")
            cov = cov + self.theta2**2 * np.eye(cov.shape[0])
        return cov

    def diag(self, x: np.ndarray, noise: bool = False) -> np.ndarray:
        """``c(x_i, x_i)`` for each row (prior variance of each input)."""
        x = np.atleast_2d(x)
        value = self.theta0**2 + (self.theta2**2 if noise else 0.0)
        return np.full(x.shape[0], value)

    def gradients(self, x: np.ndarray) -> list[np.ndarray]:
        """``dK/d log theta_j`` for the symmetric noisy matrix ``K(x, x)``.

        Returns three matrices in parameter order (theta0, theta1, theta2).
        """
        x = np.atleast_2d(x)
        sq = squared_distances(x, x)
        se = self.theta0**2 * np.exp(-0.5 * sq / self.theta1**2)
        d_log_theta0 = 2.0 * se
        d_log_theta1 = se * (sq / self.theta1**2)
        d_log_theta2 = 2.0 * self.theta2**2 * np.eye(x.shape[0])
        return [d_log_theta0, d_log_theta1, d_log_theta2]

    def replace(self, **kwargs) -> "SquaredExponentialKernel":
        """Copy with some hyperparameters replaced."""
        params = {
            "theta0": self.theta0,
            "theta1": self.theta1,
            "theta2": self.theta2,
        }
        params.update(kwargs)
        return SquaredExponentialKernel(**params)
