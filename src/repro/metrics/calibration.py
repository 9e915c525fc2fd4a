"""Calibration diagnostics for Gaussian predictive distributions.

MNLPD (Section 6.3.1) compresses uncertainty quality into one number;
these diagnostics unpack it, answering the question an operator actually
asks of SMiLer's intervals ("do my 95% bands contain 95% of outcomes?"):

* :func:`interval_coverage` — empirical coverage of central intervals,
* :func:`calibration_error` — mean |empirical - nominal| coverage over a
  grid of levels (0 = perfectly calibrated),
* :func:`sharpness` — mean predictive standard deviation (narrower is
  better *given* calibration).
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfinv

__all__ = [
    "interval_coverage",
    "calibration_error",
    "sharpness",
]


def _validate(truth, means, variances):
    truth = np.asarray(truth, dtype=np.float64).ravel()
    means = np.asarray(means, dtype=np.float64).ravel()
    variances = np.asarray(variances, dtype=np.float64).ravel()
    if not truth.size == means.size == variances.size:
        raise ValueError(
            f"mismatched lengths: {truth.size}, {means.size}, {variances.size}"
        )
    if truth.size == 0:
        raise ValueError("cannot assess calibration of zero predictions")
    if (variances <= 0).any():
        raise ValueError("predictive variances must be positive")
    return truth, means, variances


def interval_coverage(truth, means, variances, level: float = 0.95) -> float:
    """Fraction of truths inside the central ``level`` interval."""
    truth, means, variances = _validate(truth, means, variances)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = np.sqrt(2.0) * erfinv(level)
    half_width = z * np.sqrt(variances)
    inside = np.abs(truth - means) <= half_width
    return float(np.mean(inside))


def calibration_error(
    truth, means, variances, levels: np.ndarray | None = None
) -> float:
    """Mean absolute gap between empirical and nominal coverage."""
    if levels is None:
        levels = np.linspace(0.1, 0.9, 9)
    levels = np.asarray(levels, dtype=np.float64)
    if ((levels <= 0) | (levels >= 1)).any():
        raise ValueError("levels must lie strictly inside (0, 1)")
    gaps = [
        abs(interval_coverage(truth, means, variances, level=level) - level)
        for level in levels
    ]
    return float(np.mean(gaps))


def sharpness(variances) -> float:
    """Mean predictive standard deviation (smaller = sharper)."""
    variances = np.asarray(variances, dtype=np.float64).ravel()
    if variances.size == 0:
        raise ValueError("cannot assess sharpness of zero predictions")
    if (variances <= 0).any():
        raise ValueError("predictive variances must be positive")
    return float(np.mean(np.sqrt(variances)))
