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

Training runs as a *lane*: the awake GP cells of a forecast lane that
take ``k`` neighbours are one stack, one
:meth:`GaussianProcessPredictor.predict_rows` call across item lengths
and sensors.  Each member runs the one CG body as a coroutine; each tick
answers the stack's value requests with one stacked
:meth:`~repro.gp.loo.LooProblem.values` call, then its gradient requests
with at most one stacked gradient call.  Members share calls, not
numbers, so :meth:`GaussianProcessPredictor.predict` is a stack of one.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

from ..gp.kernels import SquaredExponentialKernel, squared_distances
from ..gp.loo import LooProblem
from ..gp.optimize import CgRun, OptimizeResult, conjugate_gradient
from ..obs import hooks as obs
from ..tolerances import GP_FALLBACK_VARIANCE, GP_VARIANCE_FLOOR
from .predictor import GaussianPrediction, Outcome, SemiLazyPredictor, checked

__all__ = ["GaussianProcessPredictor"]

logger = logging.getLogger(__name__)

#: Soft box for log-hyperparameters.  LOO likelihood is flat along the
#: ridge theta0, theta1 -> inf (the SE kernel's linear limit) where the
#: predictive variance is pure cancellation noise; on z-normalised sensor
#: data |log theta| <= 6 (theta in [2.5e-3, 403]) is generous.
_LOG_BOUND = 6.0
_PENALTY = 10.0


class _BoxedStack:
    """Negative LOO likelihood plus a quadratic pull-back into the box,
    per member of a :class:`~repro.gp.loo.LooProblem` stack."""

    def __init__(self, problem: LooProblem) -> None:
        self.problem = problem
        self._pull: dict[int, np.ndarray] | None = None  # None: all inside

    def values(self, points: np.ndarray, members: list[int]) -> tuple:
        with obs.span("loo_values"):
            values, failed = self.problem.values(points.clip(-12, 12), members)
        self._pull = None
        if np.abs(points).max() > _LOG_BOUND:
            excess = np.maximum(np.abs(points) - _LOG_BOUND, 0.0)
            self._pull = dict(
                zip(members, 2.0 * _PENALTY * excess * np.sign(points))
            )
            values = values + _PENALTY * (excess**2).sum(axis=1)
        return values, failed

    def gradients(self, members: list[int]) -> np.ndarray:
        with obs.span("loo_gradients"):
            grads = self.problem.gradients(members)
        if self._pull is None:
            return grads
        return grads + np.array([self._pull[member] for member in members])


def _lock_step(boxed: _BoxedStack, runs: dict[int, CgRun]) -> tuple[dict, dict]:
    """Answer the CG runs of one stack tick by tick: every run that asks
    for a value gets it from one stacked value call, then every run that
    now asks for a gradient from at most one stacked gradient call, in
    member order (a tick that asks every member covers the stack as
    stored).  Returns ``({member: OptimizeResult or the exception that
    failed it}, {member: (log theta, K^-1, alpha) where its run last
    valued})``."""
    finished: dict = {}
    factors: dict = {}
    asks: dict = {}

    def advance(member, answer):
        try:
            asks[member] = runs[member].send(answer)
        except StopIteration as stop:
            finished[member] = stop.value
            factors[member] = boxed.problem.factor(member)
        except Exception as error:  # noqa: BLE001 - fails this member
            finished[member] = error.with_traceback(None)

    for member in runs:
        advance(member, None)
    while asks:
        members = sorted(asks)
        values, failed = boxed.values(
            np.array([asks.pop(member) for member in members]), members
        )
        for at, (member, value) in enumerate(zip(members, values.tolist())):
            if at in failed:
                runs[member].close()
                finished[member] = failed[at]
            else:
                advance(member, value)
        wanting = [member for member, ask in asks.items() if ask is None]
        if wanting:
            for member, grad in zip(wanting, boxed.gradients(wanting)):
                del asks[member]
                advance(member, grad)
    return finished, factors


def _train_stack(
    predictors: Sequence["GaussianProcessPredictor"],
    problem: LooProblem,
    neighbours: Sequence[np.ndarray],
    targets: np.ndarray,
) -> tuple[dict, dict]:
    """The lane trainer: train one stack in lock step and move each
    predictor to its trained hyperparameters.  Returns ``{member:
    exception}`` (those predictors untouched) and the kept factors."""
    starts, budgets, runs = [], [], {}
    for member, predictor in enumerate(predictors):
        if predictor._log_params is None:
            start = _seed_kernel(neighbours[member], targets[member]).log_params
            budget = predictor.initial_train_iters
            predictor._step = 1.0
        else:
            start, budget = predictor._log_params, predictor.online_train_iters
        starts.append(start)
        budgets.append(budget)
        if budget > 0:
            runs[member] = conjugate_gradient(
                start, max_iters=budget, initial_step=min(1.0, 2.0 * predictor._step)
            )
    finished, factors = _lock_step(_BoxedStack(problem), runs)
    failed = {}
    if obs.is_enabled():  # one report for the stack's trainings
        trained = [
            (result.converged, not result.converged, result.iterations,
             result.evaluations, result.gradient_evaluations)
            for result in finished.values() if isinstance(result, OptimizeResult)
        ]
        if trained:
            obs.observe_gp_training(*np.sum(trained, axis=0).tolist())
    for member, predictor in enumerate(predictors):
        result = finished.get(member)
        if isinstance(result, Exception):
            failed[member] = result
            continue
        if isinstance(result, OptimizeResult):
            predictor._step = result.step
            predictor.cg_iterations += result.iterations
            predictor.objective_evaluations += result.evaluations
            predictor.gradient_evaluations += result.gradient_evaluations
            if not result.converged:
                logger.debug(
                    "GP LOO-CG training stopped without convergence after "
                    "%d/%d iterations (objective %.6g)",
                    result.iterations, budgets[member], result.value,
                )
            starts[member] = result.x
        predictor._log_params = np.clip(
            np.asarray(starts[member]), -_LOG_BOUND, _LOG_BOUND
        )
        predictor.train_calls += 1
    return failed, factors


def _fit_stack(predictors, queries, neighbours, targets) -> Outcome:
    """Train, then predict, one stack (one ``k``).  The posterior reads
    the factor a member's training kept at its trained point, or —
    trained elsewhere (a clipped point, a rejected last candidate, no
    budget) — one more stacked factorisation there."""
    targets = np.array(targets)
    # Centre the targets: the zero-mean prior of Appendix B.3 is right for
    # the *local* residual, not the raw values — without this the
    # posterior shrinks towards 0 whenever the kernel correlation is weak
    # (long horizons), losing to plain aggregation.
    target_means = targets.mean(axis=1)
    centred = targets - target_means[:, None]
    problem = LooProblem(neighbours, centred)
    mean, variance = np.zeros(len(predictors)), np.zeros(len(predictors))
    with obs.span("gp_train"):
        errors, factors = _train_stack(predictors, problem, neighbours, centred)
    stale = [
        member for member, predictor in enumerate(predictors)
        if member not in errors and not (
            member in factors
            and np.array_equal(factors[member][0], predictor._log_params)
        )
    ]
    if stale:
        _, refused = problem.values(
            np.array([predictors[member]._log_params for member in stale]), stale
        )
        for at, member in enumerate(stale):
            if at in refused:
                errors[member] = refused[at]
            else:
                factors[member] = problem.factor(member)
    served = [member for member in range(len(predictors)) if member not in errors]
    if not served:
        return mean, variance, errors
    theta_sq = np.exp(np.array([predictors[m]._log_params for m in served])) ** 2
    kinv = np.array([factors[member][1] for member in served])
    alpha = np.array([factors[member][2] for member in served])
    query_sq = np.array([
        squared_distances(neighbours[member], queries[member][None, :])[:, 0]
        for member in served
    ])
    cross = theta_sq[:, :1] * np.exp(-0.5 * query_sq / theta_sq[:, 1:2])
    means = (cross * alpha).sum(axis=1) + target_means[served]
    variances = theta_sq[:, 0] + theta_sq[:, 2] - (
        cross * (kinv @ cross[:, :, None])[:, :, 0]
    ).sum(axis=1)
    mean[served], variance[served] = means, np.maximum(variances, GP_VARIANCE_FLOOR)
    for at in np.flatnonzero(~(np.isfinite(means) & np.isfinite(variances))):
        # Pathological conditioning: degrade gracefully to aggregation.
        member = served[at]
        mean[member] = targets[member].mean()
        variance[member] = np.var(targets[member]) + GP_FALLBACK_VARIANCE
    return mean, variance, errors


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

    def predict(
        self, query: np.ndarray, neighbours: np.ndarray, targets: np.ndarray
    ) -> GaussianPrediction:
        """Gaussian h-step-ahead prediction (see BaseForecaster.predict):
        a lane of one."""
        query, neighbours, targets = self._validate(query, neighbours, targets)
        mean, variance, errors = self.predict_rows(
            [self], targets[None, :], lambda: ([query], [neighbours])
        )
        if errors:
            raise errors[0]
        return GaussianPrediction(float(mean[0]), float(variance[0]))

    @staticmethod
    def predict_rows(predictors, targets: np.ndarray, segments) -> Outcome:
        """The GP family's prediction step for one stack of ``k``
        (:func:`_fit_stack` under one ``gp_fit`` span): its members train
        in lock step whatever their ``d`` and sensor."""
        k = targets.shape[1]
        if k < 2:
            # A one-point GP posterior is degenerate; fall back to the
            # neighbour's target with prior-scale uncertainty.
            return checked(targets[:, 0].copy(), np.ones(len(targets)), {})
        with obs.span("gp_fit") as sp:
            if sp is not None:
                sp.attrs["k"] = k
                sp.attrs["members"] = len(predictors)
            outcome = _fit_stack(predictors, *segments(), targets)
        return checked(*outcome)
