"""Aggregation Regression predictor (SMiLer-AR, Section 5.2.1).

The simple instantiation of the abstract predictor: pseudo-mean and
pseudo-variance of the neighbours' h-step-ahead values (Eqns. 10-13).
Cheap and surprisingly accurate on seasonal data, but — as the paper's
MNLPD plots show — its variance is not a calibrated posterior.
"""

from __future__ import annotations

import numpy as np

from ..tolerances import AR_VARIANCE_FLOOR
from .predictor import GaussianPrediction, Outcome, SemiLazyPredictor, checked, failed

__all__ = ["AggregationPredictor"]


class AggregationPredictor(SemiLazyPredictor):
    """Eqns. 10-13: plain average + biased variance (floored) of the targets."""

    def predict(
        self, query: np.ndarray, neighbours: np.ndarray, targets: np.ndarray
    ) -> GaussianPrediction:
        """Gaussian h-step-ahead prediction (see BaseForecaster.predict);
        the stacked reduction of :meth:`predict_stacks` on ``[1, k]``."""
        _, _, targets = self._validate(query, neighbours, targets)
        mean, variance = _moments(targets[None, :])
        return GaussianPrediction(
            float(mean[0]), max(float(variance[0]), AR_VARIANCE_FLOOR)
        )

    @staticmethod
    def predict_stacks(stacks) -> list[Outcome]:
        """Per stack, every row's pseudo-mean and pseudo-variance in two
        last-axis reductions; shapes are checked once for the stack (a
        mismatch fails its rows), each row's Gaussian on its own."""
        outcomes = []
        for stack in stacks:
            try:
                outcomes.append(_stack_moments(*stack))
            except ValueError as error:
                outcomes.append(failed(len(stack[0]), error))
        return outcomes


def _stack_moments(predictors, queries, neighbours, targets) -> Outcome:
    """One stack of :meth:`AggregationPredictor.predict_stacks`."""
    rows, k, d = neighbours.shape
    if (
        queries.shape != (rows, d)
        or targets.shape != (rows, k)
        or len(predictors) != rows
    ):
        raise ValueError(
            f"expected R predictors, queries [R, d], neighbours [R, k, d] "
            f"and targets [R, k]; got {len(predictors)}, {queries.shape}, "
            f"{neighbours.shape}, {targets.shape}"
        )
    if k == 0:
        raise ValueError("at least one neighbour is required")
    mean, variance = _moments(targets)
    return checked(mean, np.maximum(variance, AR_VARIANCE_FLOOR), {})


def _moments(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eqns. 10-13 for every row of ``targets [R, k]``.  Reduced along
    the last axis only: that is the same pairwise summation a row gets
    alone, so a row's moments do not depend on its neighbours in the
    stack (pinned by ``tests/test_forecast_lane.py``)."""
    mean = targets.mean(axis=1)
    return mean, ((targets - mean[:, None]) ** 2).mean(axis=1)
