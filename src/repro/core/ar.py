"""Aggregation Regression predictor (SMiLer-AR, Section 5.2.1).

The simple instantiation of the abstract predictor: pseudo-mean and
pseudo-variance of the neighbours' h-step-ahead values (Eqns. 10-13).
Cheap and surprisingly accurate on seasonal data, but — as the paper's
MNLPD plots show — its variance is not a calibrated posterior.
"""

from __future__ import annotations

import numpy as np

from .predictor import GaussianPrediction, SemiLazyPredictor

__all__ = ["AggregationPredictor"]


class AggregationPredictor(SemiLazyPredictor):
    """Eqns. 10-13: plain average + biased variance of the kNN targets."""

    def __init__(self, variance_floor: float = 1e-8) -> None:
        if variance_floor <= 0:
            raise ValueError(f"variance_floor must be positive, got {variance_floor}")
        self.variance_floor = variance_floor

    def predict(
        self, query: np.ndarray, neighbours: np.ndarray, targets: np.ndarray
    ) -> GaussianPrediction:
        """Gaussian h-step-ahead prediction (see BaseForecaster.predict);
        the stacked reduction of :meth:`predict_rows` on ``[1, k]``."""
        _, _, targets = self._validate(query, neighbours, targets)
        mean, variance = _moments(targets[None, :])
        return GaussianPrediction(
            float(mean[0]), max(float(variance[0]), self.variance_floor)
        )

    @staticmethod
    def predict_rows(predictors, queries, neighbours, targets):
        """Every row's pseudo-mean and pseudo-variance in two last-axis
        reductions; shapes are checked once for the stack (a mismatch
        raises), each row's Gaussian is still checked on its own."""
        rows, k, d = neighbours.shape
        if (
            queries.shape != (rows, d)
            or targets.shape != (rows, k)
            or len(predictors) != rows
        ):
            raise ValueError(
                f"expected R predictors, queries [R, d], neighbours "
                f"[R, k, d] and targets [R, k]; got {len(predictors)}, "
                f"{queries.shape}, {neighbours.shape}, {targets.shape}"
            )
        if k == 0:
            raise ValueError("at least one neighbour is required")
        means, variances = _moments(targets)
        outcomes: list[GaussianPrediction | Exception] = []
        for predictor, mean, variance in zip(
            predictors, means.tolist(), variances.tolist()
        ):
            try:
                outcomes.append(GaussianPrediction(
                    mean, max(variance, predictor.variance_floor)
                ))
            except ValueError as error:
                outcomes.append(error.with_traceback(None))
        return outcomes


def _moments(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eqns. 10-13 for every row of ``targets [R, k]``.  Reduced along
    the last axis only: that is the same pairwise summation a row gets
    alone, so a row's moments do not depend on its neighbours in the
    stack (pinned by ``tests/test_forecast_lane.py``)."""
    mean = targets.mean(axis=1)
    return mean, ((targets - mean[:, None]) ** 2).mean(axis=1)
