"""The per-cell GP trainer the lane replaced, kept verbatim as an oracle.

Before the lane, every GP cell trained alone: ``GaussianProcessPredictor._train``
built one ``_BoxedLoo`` over one ``LooProblem`` (``evaluate`` / ``value``
/ ``gradient``: the GPML-5.13 gradient with one ``Kinv @ dK`` per
hyperparameter) and handed it to ``conjugate_gradient_minimize``; then
``predict`` re-fitted a ``GaussianProcessRegressor`` at the trained
hyperparameters for the posterior.  Those bodies are below, unchanged but
for their names.  :class:`CellGaussianProcessPredictor` is a
``GaussianProcessPredictor`` (same counters, same snapshot fields) that
predicts that way, one cell at a time: it takes the base class's
``predict_rows``, which loops ``predict`` per row, so a ``SMiLer`` whose
predictors are these never reaches the lane.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrs

from repro.core.gp_predictor import (
    _LOG_BOUND,
    _PENALTY,
    GaussianProcessPredictor,
    _seed_kernel,
    logger,
)
from repro.core.predictor import GaussianPrediction, SemiLazyPredictor
from repro.gp.kernels import SquaredExponentialKernel, squared_distances
from repro.gp.loo import LooResult
from repro.gp.optimize import conjugate_gradient_minimize
from repro.gp.regression import GaussianProcessRegressor, robust_cholesky
from repro.obs import hooks as obs
from repro.tolerances import (
    GP_FALLBACK_VARIANCE,
    GP_VARIANCE_FLOOR,
    LOO_DIAGONAL_FLOOR,
)

__all__ = ["CellGaussianProcessPredictor", "CellLooProblem", "per_cell"]

_LOG_2PI = np.log(2.0 * np.pi)


class CellLooProblem:
    """The LOO training problem of one ``(inputs, targets)`` set
    (``repro.gp.loo.LooProblem`` before it became a stack)."""

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self._y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != self._y.size:
            raise ValueError(f"{x.shape[0]} inputs but {self._y.size} targets")
        self._sq = squared_distances(x, x)
        self._exponent = -0.5 * self._sq  # times 1 / theta1^2, per evaluation
        self._eye = np.eye(self._y.size)
        self._kept: tuple | None = None

    def evaluate(self, kernel: SquaredExponentialKernel) -> LooResult:
        """LOO posterior of every held-out point under ``kernel`` (Eqn. 19,
        GPML eq. 5.10-5.12); the point :meth:`gradient` then refers to."""
        y = self._y
        se = kernel.theta0**2 * np.exp(self._exponent / kernel.theta1**2)
        lower, _ = robust_cholesky(se + kernel.theta2**2 * self._eye)
        kinv, info = dpotrs(lower, self._eye, lower=1)
        if info != 0:
            raise ValueError(f"LAPACK dpotrs: illegal value in argument {-info}")
        alpha = kinv @ y
        diag = np.maximum(kinv.diagonal(), LOO_DIAGONAL_FLOOR)
        variances = 1.0 / diag
        means = y - alpha / diag
        logp = (
            -0.5 * np.log(variances)
            - (y - means) ** 2 / (2.0 * variances)
            - 0.5 * _LOG_2PI
        )
        self._kept = (kernel, se, kinv, alpha, diag)
        return LooResult(means, variances, float(logp.sum()))

    def value(self, log_params: np.ndarray) -> float:
        """Negative LOO log likelihood at ``log theta`` (the optimiser
        minimises, hence the sign)."""
        kernel = SquaredExponentialKernel.from_log_params(log_params)
        return -self.evaluate(kernel).log_likelihood

    def gradient(self) -> np.ndarray:
        """Gradient w.r.t. ``log theta`` at the point last evaluated."""
        if self._kept is None:
            raise RuntimeError("value() or evaluate() must be called first")
        kernel, se, kinv, alpha, diag = self._kept
        kernel_grads = (
            2.0 * se,
            se * (self._sq / kernel.theta1**2),
            2.0 * kernel.theta2**2 * self._eye,
        )
        grads = np.empty(3)
        for j, dk in enumerate(kernel_grads):
            zj = kinv @ dk
            zj_alpha = zj @ alpha
            zj_kinv_diag = np.sum(zj * kinv.T, axis=1)
            per_point = (
                alpha * zj_alpha - 0.5 * (1.0 + alpha**2 / diag) * zj_kinv_diag
            ) / diag
            grads[j] = -float(per_point.sum())
        return grads


class _BoxedLoo:
    """Negative LOO likelihood plus a quadratic pull-back into the box,
    as the optimiser's objective (:class:`repro.gp.optimize.Objective`)."""

    def __init__(self, neighbours: np.ndarray, targets: np.ndarray) -> None:
        self._problem = CellLooProblem(neighbours, targets)
        self._excess = self._sign = np.zeros(3)

    def value(self, log_params: np.ndarray) -> float:
        value = self._problem.value(log_params.clip(-12, 12))
        self._excess = np.maximum(np.abs(log_params) - _LOG_BOUND, 0.0)
        self._sign = np.sign(log_params)
        return value + _PENALTY * float((self._excess**2).sum())

    def gradient(self) -> np.ndarray:
        pull = 2.0 * _PENALTY * self._excess * self._sign
        return self._problem.gradient() + pull


class CellGaussianProcessPredictor(GaussianProcessPredictor):
    """A GP cell trained and predicted alone, as before the lane."""

    predict_rows = SemiLazyPredictor.__dict__["predict_rows"]

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
                int(result.converged),
                int(not result.converged),
                result.iterations,
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
            var_value = float(np.var(targets)) + GP_FALLBACK_VARIANCE
            return GaussianPrediction(mean_value, var_value)
        return GaussianPrediction(float(mean[0]), float(max(var[0], GP_VARIANCE_FLOOR)))


def per_cell(config) -> GaussianProcessPredictor:
    """A drop-in for ``repro.core.smiler._make_predictor`` on GP configs:
    monkeypatched in, every ``SMiLer`` built after trains cell by cell."""
    return CellGaussianProcessPredictor(
        initial_train_iters=config.initial_train_iters,
        online_train_iters=config.online_train_iters,
    )
