"""Aggregation Regression predictor (SMiLer-AR, Section 5.2.1).

The simple instantiation of the abstract predictor: pseudo-mean and
pseudo-variance of the neighbours' h-step-ahead values (Eqns. 10-13).
Cheap and surprisingly accurate on seasonal data, but — as the paper's
MNLPD plots show — its variance is not a calibrated posterior.
"""

from __future__ import annotations

import numpy as np

from ..tolerances import AR_VARIANCE_FLOOR
from .predictor import (
    CellStack,
    GaussianPrediction,
    Outcome,
    SemiLazyPredictor,
    checked,
    failed,
)

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
        """Every row's pseudo-mean and pseudo-variance, the rows of all
        stacks that take as many neighbours reduced together — one
        :func:`_moments`, one floor and one :func:`checked` per ``k`` —
        and split back per stack; a row's moments do not depend on what
        it is stacked with, so each is the row's alone.  Shapes are
        checked per stack (a mismatch fails its rows only), and only the
        targets are read: a :class:`CellStack` is never gathered."""
        outcomes: list = [None] * len(stacks)
        by_k: dict[int, list[int]] = {}
        for at, stack in enumerate(stacks):
            try:
                by_k.setdefault(_neighbour_count(stack), []).append(at)
            except ValueError as error:
                outcomes[at] = failed(len(stack[0]), error)
        for members in by_k.values():
            targets = [stacks[at][3] for at in members]
            mean, variance = _moments(np.concatenate(targets))
            mean, variance, errors = checked(
                mean, np.maximum(variance, AR_VARIANCE_FLOOR), {}
            )
            end = 0
            for at, rows in zip(members, targets):
                start, end = end, end + len(rows)
                outcomes[at] = (mean[start:end], variance[start:end], {
                    row - start: error for row, error in errors.items()
                    if start <= row < end
                })
        return outcomes


def _neighbour_count(stack) -> int:
    """The ``k`` of a stack of :meth:`AggregationPredictor.predict_stacks`,
    or the ``ValueError`` of a malformed one; a :class:`CellStack`
    answers with its ``shapes``, ungathered."""
    if isinstance(stack, CellStack):
        size, queries, neighbours, targets = stack.shapes
    else:
        predictors, queries, neighbours, targets = stack
        size, queries, neighbours, targets = (
            len(predictors), queries.shape, neighbours.shape, targets.shape
        )
    if (
        len(neighbours) != 3
        or queries != (neighbours[0], neighbours[2])
        or targets != neighbours[:2]
        or size != neighbours[0]
    ):
        raise ValueError(
            f"expected R predictors, queries [R, d], neighbours [R, k, d] "
            f"and targets [R, k]; got {size}, {queries}, {neighbours}, "
            f"{targets}"
        )
    if neighbours[1] == 0:
        raise ValueError("at least one neighbour is required")
    return neighbours[1]


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
