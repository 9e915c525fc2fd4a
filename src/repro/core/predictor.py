"""Abstract semi-lazy time series predictor (Definition 3.1).

A semi-lazy predictor maps the test segment ``x_{0,d}`` and its kNN data
``(X_{k,d}, Y_h)`` to a Gaussian posterior over the h-step-ahead value:

    y_{0,h} = f(x_{0,d}, X_{k,d}, Y_h) ~ N(u, sigma^2)

Instantiations: :class:`repro.core.ar.AggregationPredictor` (Eqns. 10-13)
and :class:`repro.core.gp_predictor.GaussianProcessPredictor`
(Eqns. 14-20 with online LOO training).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = ["GaussianPrediction", "SemiLazyPredictor"]


@dataclass(frozen=True)
class GaussianPrediction:
    """One predictor's posterior ``N(mean, variance)``."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if (error := _refusal(self.mean, self.variance)) is not None:
            raise error

    def log_density(self, value: float) -> float:
        """``log N(value; mean, variance)`` (the auto-tuner's likelihood)."""
        return float(
            -0.5 * np.log(2.0 * np.pi * self.variance)
            - (value - self.mean) ** 2 / (2.0 * self.variance)
        )

    def density(self, value: float) -> float:
        """``N(value; mean, variance)`` (Eqn. 7)."""
        return float(np.exp(self.log_density(value)))


def _refusal(mean: float, variance: float) -> ValueError | None:
    """Why ``N(mean, variance)`` is no prediction, or None."""
    if not math.isfinite(mean):
        return ValueError(f"prediction mean must be finite, got {mean}")
    if not math.isfinite(variance) or variance <= 0:
        return ValueError(
            f"prediction variance must be positive and finite, got {variance}"
        )
    return None


#: What a family's :meth:`SemiLazyPredictor.predict_stacks` returns per
#: stack: ``(mean [R], variance [R], {row: exception})``.
Outcome = tuple[np.ndarray, np.ndarray, dict[int, Exception]]


def checked(mean: np.ndarray, variance: np.ndarray, errors: dict) -> Outcome:
    """``(mean, variance, errors)`` with every other row that
    :class:`GaussianPrediction` would refuse failed by the ``ValueError``
    it would raise."""
    bad = ~(np.isfinite(mean) & np.isfinite(variance) & (variance > 0))
    if bad.any():
        for row in np.flatnonzero(bad).tolist():
            errors.setdefault(row, _refusal(float(mean[row]), float(variance[row])))
    return mean, variance, errors


def failed(size: int, error: Exception) -> Outcome:
    """The outcome of a stack of ``size`` rows that ``error`` failed."""
    error = error.with_traceback(None)
    return np.zeros(size), np.zeros(size), dict.fromkeys(range(size), error)


class CellStack:
    """A ``(predictors, queries, neighbours, targets)`` stack of
    :meth:`SemiLazyPredictor.predict_stacks` whose queries and neighbours
    are gathered on first read: ``gather()`` returns ``(queries [R, d],
    neighbours [R, k, d])``.  It unpacks and indexes as that tuple would,
    and ``shapes`` is ``(R, queries' shape, neighbours' shape, targets'
    shape)`` without the gather, so a family that reads only the targets
    never pays it."""

    __slots__ = ("predictors", "targets", "shapes", "_gather", "_segments")

    def __init__(self, predictors, targets: np.ndarray, d: int, gather) -> None:
        rows, k = targets.shape
        self.predictors, self.targets, self._gather = predictors, targets, gather
        self.shapes = (len(predictors), (rows, d), (rows, k, d), (rows, k))
        self._segments = None

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """``(queries, neighbours)``, gathered once."""
        if self._segments is None:
            self._segments = self._gather()
        return self._segments

    def __getitem__(self, field: int):
        field = range(4)[field]
        if field == 0:
            return self.predictors
        if field == 3:
            return self.targets
        return self.segments()[field - 1]

    def __iter__(self):
        yield self.predictors
        yield from self.segments()
        yield self.targets


class SemiLazyPredictor(ABC):
    """The abstract ``f(.)`` of Definition 3.1."""

    @abstractmethod
    def predict(
        self, query: np.ndarray, neighbours: np.ndarray, targets: np.ndarray
    ) -> GaussianPrediction:
        """Posterior for the query given its kNN data.

        Parameters
        ----------
        query:
            The test segment ``x_{0,d}`` (length d).
        neighbours:
            ``X_{k,d}``: the k retrieved segments, shape ``(k, d)``.
        targets:
            ``Y_h``: their h-step-ahead values, shape ``(k,)``.
        """

    @staticmethod
    def predict_stacks(stacks) -> list["Outcome"]:
        """Per ``(predictors, queries [R, d], neighbours [R, k, d], targets
        [R, k])`` stack of one family, ``(mean [R], variance [R], {row:
        exception})``: row ``i`` is ``predictors[i].predict(queries[i],
        neighbours[i], targets[i])``, or the exception that failed that row
        alone; every other row passes :class:`GaussianPrediction`'s checks.
        A stack may be a :class:`CellStack`, whose queries and neighbours
        are gathered when first read.  The default evaluates row by row; a
        family whose rows reduce together overrides it."""
        outcomes = []
        for predictors, queries, neighbours, targets in stacks:
            mean, variance, errors = *np.zeros((2, len(predictors))), {}
            for row, (predictor, query, segments, values) in enumerate(
                zip(predictors, queries, neighbours, targets)
            ):
                try:
                    prediction = predictor.predict(query, segments, values)
                except Exception as error:  # noqa: BLE001 - kept per row
                    # Without the traceback: kept, it would tie this frame
                    # (and the stacks it reads) into a reference cycle.
                    errors[row] = error.with_traceback(None)
                else:
                    mean[row], variance[row] = prediction.mean, prediction.variance
            outcomes.append((mean, variance, errors))
        return outcomes

    @staticmethod
    def _validate(query, neighbours, targets):
        query = np.asarray(query, dtype=np.float64).ravel()
        neighbours = np.atleast_2d(np.asarray(neighbours, dtype=np.float64))
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if neighbours.shape[0] != targets.size:
            raise ValueError(
                f"{neighbours.shape[0]} neighbours but {targets.size} targets"
            )
        if neighbours.shape[0] == 0:
            raise ValueError("at least one neighbour is required")
        if neighbours.shape[1] != query.size:
            raise ValueError(
                f"neighbour length {neighbours.shape[1]} does not match "
                f"query length {query.size}"
            )
        return query, neighbours, targets
