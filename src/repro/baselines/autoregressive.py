"""Least-squares AR(p) models ([15]) for the service's ``ar`` rung.

* :func:`fit_ar` — least-squares AR(p) with innovation variance,
* :meth:`ArModel.forecast` — iterated h-step-ahead mean with the exact
  forecast variance via the psi (impulse response) weights.

MA terms are deliberately left out (fitting them needs nonlinear MLE
for little benefit on sensor streams).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ArModel", "fit_ar"]


@dataclass(frozen=True)
class ArModel:
    """A fitted AR(p) model ``y_t = c + sum_i phi_i y_{t-i} + eps``."""

    coefficients: np.ndarray  # phi_1 .. phi_p
    intercept: float
    noise_variance: float

    @property
    def order(self) -> int:
        """Autoregressive order p."""
        return self.coefficients.size

    def psi_weights(self, horizon: int) -> np.ndarray:
        """MA(infinity) weights psi_0..psi_{h-1} of the AR recursion.

        The h-step forecast error variance is
        ``sigma^2 * sum_{j<h} psi_j^2``.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        psi = np.zeros(horizon)
        psi[0] = 1.0
        phi = self.coefficients
        for j in range(1, horizon):
            upto = min(j, phi.size)
            psi[j] = float(phi[:upto] @ psi[j - upto : j][::-1])
        return psi

    def forecast(self, context: np.ndarray, horizon: int) -> tuple[float, float]:
        """Iterated h-step-ahead mean + exact forecast variance."""
        context = np.asarray(context, dtype=np.float64)
        p = self.order
        if context.size < p:
            raise ValueError(
                f"need at least {p} context points, got {context.size}"
            )
        window = list(context[-p:]) if p else []
        mean = self.intercept
        for _ in range(horizon):
            if p:
                # phi_1 pairs with the newest value, phi_p with the oldest.
                mean = self.intercept + float(
                    np.dot(self.coefficients, window[::-1])
                )
                window.append(mean)
                window.pop(0)
            else:
                mean = self.intercept
        psi = self.psi_weights(horizon)
        variance = self.noise_variance * float(np.sum(psi**2))
        return mean, max(variance, 1e-12)


def fit_ar(values: np.ndarray, order: int) -> ArModel:
    """Least-squares (conditional MLE) fit of an AR(p) model."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    n_rows = values.size - order
    if n_rows < order + 2:
        raise ValueError(
            f"series of length {values.size} too short for AR({order})"
        )
    if order == 0:
        mean = float(values.mean())
        return ArModel(
            coefficients=np.empty(0), intercept=mean,
            noise_variance=float(np.var(values)) + 1e-12,
        )
    design = np.ones((n_rows, order + 1))
    for lag in range(1, order + 1):
        design[:, lag] = values[order - lag : values.size - lag]
    targets = values[order:]
    solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
    residuals = targets - design @ solution
    return ArModel(
        coefficients=solution[1:], intercept=float(solution[0]),
        noise_variance=float(np.mean(residuals**2)) + 1e-12,
    )
