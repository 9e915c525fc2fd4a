"""Evaluation measures: MAE, RMSE, MNLPD, calibration diagnostics."""

from .calibration import (
    calibration_error,
    interval_coverage,
    sharpness,
)
from .errors import mae, mnlpd, nlpd_terms, rmse

__all__ = [
    "calibration_error",
    "interval_coverage",
    "sharpness",
    "mae",
    "mnlpd",
    "nlpd_terms",
    "rmse",
]
