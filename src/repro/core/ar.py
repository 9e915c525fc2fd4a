"""Aggregation Regression predictor (SMiLer-AR, Section 5.2.1).

The simple instantiation of the abstract predictor: pseudo-mean and
pseudo-variance of the neighbours' h-step-ahead values (Eqns. 10-13).
Cheap and surprisingly accurate on seasonal data, but — as the paper's
MNLPD plots show — its variance is not a calibrated posterior.
"""

from __future__ import annotations

import numpy as np

from ..tolerances import AR_VARIANCE_FLOOR
from .predictor import GaussianPrediction, Outcome, SemiLazyPredictor, checked

__all__ = ["AggregationPredictor"]


class AggregationPredictor(SemiLazyPredictor):
    """Eqns. 10-13: plain average + biased variance (floored) of the targets."""

    def predict(
        self, query: np.ndarray, neighbours: np.ndarray, targets: np.ndarray
    ) -> GaussianPrediction:
        """Gaussian h-step-ahead prediction (see BaseForecaster.predict);
        the stacked reduction of :meth:`predict_rows` on ``[1, k]``."""
        _, _, targets = self._validate(query, neighbours, targets)
        mean, variance = _moments(targets[None, :])
        return GaussianPrediction(
            float(mean[0]), max(float(variance[0]), AR_VARIANCE_FLOOR)
        )

    @staticmethod
    def predict_rows(predictors, targets: np.ndarray, segments) -> Outcome:
        """Every row's pseudo-mean and pseudo-variance: one
        :func:`_moments`, one floor and one :func:`checked` for the batch.
        A row's moments do not depend on what it is stacked with, so each
        is the row's alone.  Only the targets are read: ``segments`` is
        never called."""
        mean, variance = _moments(targets)
        return checked(mean, np.maximum(variance, AR_VARIANCE_FLOOR), {})


def _moments(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eqns. 10-13 for every row of ``targets [R, k]``: what ``.mean(axis=1)``
    computes (a sum, then a division by ``k``), without its dispatch.
    Reduced along the last axis only: that is the same pairwise summation
    a row gets alone, so a row's moments do not depend on its neighbours
    in the stack (pinned by ``tests/test_forecast_lane.py``)."""
    k = targets.shape[1]
    mean = np.add.reduce(targets, axis=1) / k
    spread = targets - mean[:, None]
    return mean, np.add.reduce(np.square(spread, out=spread), axis=1) / k
