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
from typing import Sequence

import numpy as np

__all__ = ["GaussianPrediction", "SemiLazyPredictor"]


@dataclass(frozen=True)
class GaussianPrediction:
    """One predictor's posterior ``N(mean, variance)``."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"prediction mean must be finite, got {self.mean}")
        if not math.isfinite(self.variance) or self.variance <= 0:
            raise ValueError(
                f"prediction variance must be positive and finite, got "
                f"{self.variance}"
            )

    def log_density(self, value: float) -> float:
        """``log N(value; mean, variance)`` (the auto-tuner's likelihood)."""
        return float(
            -0.5 * np.log(2.0 * np.pi * self.variance)
            - (value - self.mean) ** 2 / (2.0 * self.variance)
        )

    def density(self, value: float) -> float:
        """``N(value; mean, variance)`` (Eqn. 7)."""
        return float(np.exp(self.log_density(value)))


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
    def predict_rows(
        predictors: Sequence["SemiLazyPredictor"],
        queries: np.ndarray,
        neighbours: np.ndarray,
        targets: np.ndarray,
    ) -> list["GaussianPrediction | Exception"]:
        """One cell of many sensors at once: row ``i`` is
        ``predictors[i].predict(queries[i], neighbours[i], targets[i])``
        for ``queries [R, d]``, ``neighbours [R, k, d]``, ``targets
        [R, k]``, with a row's exception returned in its place so one
        sensor's failure stays its own.  The default evaluates row by
        row; a family whose rows reduce together overrides it (called as
        ``type(predictors[0]).predict_rows(...)`` on rows of one family).
        """
        outcomes: list[GaussianPrediction | Exception] = []
        for predictor, query, segments, values in zip(
            predictors, queries, neighbours, targets
        ):
            try:
                outcomes.append(predictor.predict(query, segments, values))
            except Exception as error:  # noqa: BLE001 - returned per row
                # Without the traceback: kept, it would tie this frame
                # (and the stacks it reads) into a reference cycle.
                outcomes.append(error.with_traceback(None))
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
