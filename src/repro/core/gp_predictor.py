"""Query-dependent Gaussian Process predictor (Section 5.2.2).

The heart of SMiLer-GP: for every prediction request a *fresh* GP is
conditioned on just the kNN data, with hyperparameters trained online by
maximising the leave-one-out predictive likelihood (Eqns. 19-20) with
conjugate gradients.

Two training regimes, exactly as the paper describes:

* **initial** — the first request optimises from a data-driven seed with
  a full CG budget;
* **continuous** — later requests warm-start from the previous step's
  hyperparameters and take a small *fixed* number of CG steps ("the
  energy paid for the training process in previous steps is partially
  preserved").  The step length is warm-started too: a training's first
  line search starts at twice the last step the cell accepted (capped at
  1.0), not at 1.0.
"""

from __future__ import annotations

import logging

import numpy as np

from ..gp.kernels import SquaredExponentialKernel
from ..gp.loo import LooProblem
from ..gp.optimize import conjugate_gradient_minimize
from ..gp.regression import GaussianProcessRegressor
from ..obs import hooks as obs
from .predictor import GaussianPrediction, SemiLazyPredictor

__all__ = ["GaussianProcessPredictor"]

logger = logging.getLogger(__name__)

#: Soft box for log-hyperparameters.  LOO likelihood is flat along the
#: ridge theta0, theta1 -> inf (the SE kernel's linear limit) where the
#: predictive variance is pure cancellation noise; on z-normalised sensor
#: data |log theta| <= 6 (theta in [2.5e-3, 403]) is generous.
_LOG_BOUND = 6.0
_PENALTY = 10.0


class _BoxedLoo:
    """Negative LOO likelihood plus a quadratic pull-back into the box,
    as the optimiser's objective (:class:`repro.gp.optimize.Objective`)."""

    def __init__(self, neighbours: np.ndarray, targets: np.ndarray) -> None:
        self._problem = LooProblem(neighbours, targets)
        self._excess = self._sign = np.zeros(3)

    def value(self, log_params: np.ndarray) -> float:
        value = self._problem.value(log_params.clip(-12, 12))
        self._excess = np.maximum(np.abs(log_params) - _LOG_BOUND, 0.0)
        self._sign = np.sign(log_params)
        return value + _PENALTY * float((self._excess**2).sum())

    def gradient(self) -> np.ndarray:
        pull = 2.0 * _PENALTY * self._excess * self._sign
        return self._problem.gradient() + pull


def _seed_kernel(neighbours: np.ndarray, targets: np.ndarray) -> SquaredExponentialKernel:
    """Data-driven starting hyperparameters.

    Signal amplitude from the target spread, length-scale from the RMS
    distance of the neighbours to their centroid, noise an order below
    the signal.
    """
    signal = float(np.std(targets))
    signal = signal if signal > 1e-6 else 1.0
    diffs = neighbours - neighbours.mean(axis=0, keepdims=True)
    scale = float(np.sqrt(np.mean(np.sum(diffs**2, axis=1))))
    scale = scale if scale > 1e-6 else 1.0
    return SquaredExponentialKernel(
        theta0=signal, theta1=scale, theta2=max(0.1 * signal, 1e-3)
    )


class GaussianProcessPredictor(SemiLazyPredictor):
    """Exact GP on the kNN data with online LOO-CG hyperparameter training."""

    def __init__(
        self,
        initial_train_iters: int = 25,
        online_train_iters: int = 5,
    ) -> None:
        if initial_train_iters < 0 or online_train_iters < 0:
            raise ValueError("training iteration counts must be non-negative")
        self.initial_train_iters = initial_train_iters
        self.online_train_iters = online_train_iters
        self._log_params: np.ndarray | None = None
        #: Last step length a line search accepted; the next training's
        #: first search starts at twice it (capped at 1.0).
        self._step = 1.0
        self.train_calls = 0
        self.cg_iterations = 0
        self.objective_evaluations = 0
        self.gradient_evaluations = 0

    @property
    def kernel(self) -> SquaredExponentialKernel | None:
        """Current hyperparameters (None before the first prediction)."""
        if self._log_params is None:
            return None
        return SquaredExponentialKernel.from_log_params(self._log_params)

    def _train(self, neighbours: np.ndarray, targets: np.ndarray) -> SquaredExponentialKernel:
        if self._log_params is None:
            start = _seed_kernel(neighbours, targets).log_params
            budget = self.initial_train_iters
            self._step = 1.0
        else:
            start = self._log_params
            budget = self.online_train_iters
        if budget > 0:
            result = conjugate_gradient_minimize(
                _BoxedLoo(neighbours, targets),
                start,
                max_iters=budget,
                initial_step=min(1.0, 2.0 * self._step),
            )
            self._step = result.step
            self.cg_iterations += result.iterations
            self.objective_evaluations += result.evaluations
            self.gradient_evaluations += result.gradient_evaluations
            obs.observe_gp_training(
                result.iterations,
                result.converged,
                result.evaluations,
                result.gradient_evaluations,
            )
            if not result.converged:
                logger.debug(
                    "GP LOO-CG training stopped without convergence after "
                    "%d/%d iterations (objective %.6g)",
                    result.iterations, budget, result.value,
                )
            start = result.x
        self._log_params = np.clip(np.asarray(start), -_LOG_BOUND, _LOG_BOUND)
        self.train_calls += 1
        return SquaredExponentialKernel.from_log_params(self._log_params)

    def predict(
        self, query: np.ndarray, neighbours: np.ndarray, targets: np.ndarray
    ) -> GaussianPrediction:
        """Gaussian h-step-ahead prediction (see BaseForecaster.predict)."""
        query, neighbours, targets = self._validate(query, neighbours, targets)
        if neighbours.shape[0] < 2:
            # A one-point GP posterior is degenerate; fall back to the
            # neighbour's target with prior-scale uncertainty.
            return GaussianPrediction(float(targets[0]), 1.0)
        # Centre the targets: the zero-mean prior of Appendix B.3 is right
        # for the *local* residual, not the raw values — without this the
        # posterior shrinks towards 0 whenever the kernel correlation is
        # weak (long horizons), losing to plain aggregation.
        target_mean = float(targets.mean())
        centred = targets - target_mean
        with obs.span("gp_fit") as sp:
            if sp is not None:
                sp.attrs["k"] = int(neighbours.shape[0])
                sp.attrs["d"] = int(neighbours.shape[1])
            kernel = self._train(neighbours, centred)
            gp = GaussianProcessRegressor(kernel).fit(neighbours, centred)
        mean, var = gp.predict(query[None, :], include_noise=True)
        mean = mean + target_mean
        if not np.isfinite(mean[0]) or not np.isfinite(var[0]):
            # Pathological conditioning: degrade gracefully to aggregation.
            mean_value = float(targets.mean())
            var_value = float(np.var(targets)) + 1e-6
            return GaussianPrediction(mean_value, var_value)
        return GaussianPrediction(float(mean[0]), float(max(var[0], 1e-10)))
