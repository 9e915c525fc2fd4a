"""Optimisers for online GP training (Section 5.2.2) and baselines.

* :func:`conjugate_gradient` — Polak-Ribière+ conjugate gradient with
  Armijo backtracking, written as a coroutine so that one body serves a
  single objective (:func:`conjugate_gradient_minimize`) and a stack of
  GP cells trained in lock step (:mod:`repro.core.gp_predictor`).
  Supports the paper's two training regimes: full optimisation for the
  initial query and *fixed-step* pursuit (``max_iters=5``) warm-started
  from the previous step's hyperparameters for continuous prediction.
* :func:`nelder_mead_minimize` — derivative-free simplex search used by
  the Holt-Winters and sparse-GP baselines (whose objectives we do not
  differentiate analytically).

Both are dependency-free re-implementations; correctness is checked on
standard test functions and against known optima in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Protocol

import numpy as np

__all__ = [
    "Objective",
    "OptimizeResult",
    "conjugate_gradient",
    "conjugate_gradient_minimize",
    "nelder_mead_minimize",
]

class Objective(Protocol):
    """What :func:`conjugate_gradient_minimize` minimises: ``value(x)``
    at every line-search candidate, ``gradient()`` at the point last
    valued — asked only at the start and at steps the run goes on from."""

    def value(self, x: np.ndarray) -> float: ...

    def gradient(self) -> np.ndarray: ...


@dataclass
class OptimizeResult:
    """Terminal state of an optimisation run.

    ``evaluations`` / ``gradient_evaluations`` count what
    :func:`conjugate_gradient` asked of its objective (0 from
    :func:`nelder_mead_minimize`, which does not count); ``step`` is the
    last step length a CG line search accepted (``initial_step`` when
    none was).
    """

    x: np.ndarray
    value: float
    iterations: int
    converged: bool
    evaluations: int = 0
    gradient_evaluations: int = 0
    step: float = 1.0


#: A :func:`conjugate_gradient` run: yields a point and is sent the value
#: there, or yields ``None`` and is sent the gradient at the point last
#: valued (asked at the start and at each step the run goes on from: as
#: many gradients as iterations).
CgRun = Generator["np.ndarray | None", "float | np.ndarray", OptimizeResult]


def _line_search(
    x: np.ndarray,
    value: float,
    grad: np.ndarray,
    direction: np.ndarray,
    initial_step: float,
    armijo: float = 1e-4,
    shrink: float = 0.5,
    max_backtracks: int = 25,
) -> Generator["np.ndarray | None", "float | np.ndarray", tuple]:
    """Armijo backtracking along ``direction``, as a sub-coroutine of
    :func:`conjugate_gradient`: candidates are valued only.  Returns
    ``(new_x, new_value, step)`` or None when no progress, and the values
    asked."""
    slope = float(grad @ direction)
    if slope >= 0:
        return None, 0
    step = initial_step
    for tries in range(1, max_backtracks + 1):
        candidate = x + step * direction
        cand_value = yield candidate
        if np.isfinite(cand_value) and cand_value <= value + armijo * step * slope:
            return (candidate, cand_value, step), tries
        step *= shrink
    return None, max_backtracks


def conjugate_gradient(
    x0: np.ndarray,
    max_iters: int = 100,
    grad_tol: float = 1e-6,
    value_tol: float = 1e-10,
    initial_step: float = 1.0,
) -> CgRun:
    """Polak-Ribière+ CG with restarts and Armijo backtracking, as a
    coroutine (see :data:`CgRun`) returning an :class:`OptimizeResult`.

    The first line search starts at ``initial_step`` (in ``(0, 1]``);
    every later one, the steepest-descent restart included, at ``min(1,
    2 × the last accepted step)``.  No search starts above 1.0, and from
    a power-of-two ``initial_step`` every candidate is a rung of the 1,
    1/2, 1/4, … ladder.
    """
    if not 0.0 < initial_step <= 1.0:
        raise ValueError(f"initial_step must be in (0, 1], got {initial_step}")
    x = np.asarray(x0, dtype=np.float64).copy()
    value = yield x
    if not np.isfinite(value):
        raise ValueError(f"objective not finite at the start point: {value}")
    grad = yield None
    evaluations = gradient_evaluations = 1
    direction = -grad
    iterations = 0
    converged = False
    accepted = start = initial_step
    for iterations in range(1, max_iters + 1):
        if np.sqrt(grad @ grad) < grad_tol:  # np.linalg.norm, without its checks
            converged = True
            break
        result, tries = yield from _line_search(x, value, grad, direction, start)
        evaluations += tries
        if result is None:
            # Bad direction (stale conjugacy): restart with steepest descent.
            result, tries = yield from _line_search(x, value, grad, -grad, start)
            evaluations += tries
            if result is None:
                break
        new_x, new_value, accepted = result
        # A step accepted at a first try below 1.0 was never tested
        # longer, so a small decrease there is not evidence of a minimum.
        untested = accepted == start < 1.0
        start = min(1.0, 2.0 * accepted)
        stalled = value - new_value < value_tol * (abs(value) + value_tol)
        x, value = new_x, new_value
        converged = stalled and not untested
        if converged or iterations == max_iters:
            break
        new_grad = yield None  # only a run that goes on needs it
        gradient_evaluations += 1
        # Polak-Ribière+ update with automatic restart (beta clipped to
        # [0, 1e6]; runaway beta on ill-scaled problems degenerates the
        # direction and is caught by the steepest-descent restart above).
        with np.errstate(over="ignore", invalid="ignore"):
            beta = float(
                new_grad @ (new_grad - grad) / max(grad @ grad, 1e-300)
            )
            beta = min(max(0.0, beta), 1e6)
            direction = -new_grad + beta * direction
        if not np.isfinite(direction).all():
            direction = -new_grad
        grad = new_grad
    return OptimizeResult(
        x=x,
        value=value,
        iterations=iterations,
        converged=converged,
        evaluations=evaluations,
        gradient_evaluations=gradient_evaluations,
        step=accepted,
    )


def conjugate_gradient_minimize(
    fun: Objective | Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    max_iters: int = 100,
    grad_tol: float = 1e-6,
    value_tol: float = 1e-10,
    initial_step: float = 1.0,
) -> OptimizeResult:
    """Minimise one objective with :func:`conjugate_gradient`.

    ``fun`` is an :class:`Objective` or a plain callable returning
    ``(value, gradient)``.
    """
    run = conjugate_gradient(x0, max_iters, grad_tol, value_tol, initial_step)
    grad = None
    try:
        ask = next(run)
        while True:
            if not callable(fun):
                ask = run.send(fun.gradient() if ask is None else fun.value(ask))
            elif ask is None:
                ask = run.send(grad)
            else:
                value, grad = fun(ask)
                ask = run.send(value)
    except StopIteration as stop:
        return stop.value


def nelder_mead_minimize(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iters: int = 200,
    initial_step: float = 0.25,
    tol: float = 1e-8,
) -> OptimizeResult:
    """Nelder-Mead simplex minimisation (standard coefficients)."""
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    n = x0.size
    simplex = [x0.copy()]
    for i in range(n):
        vertex = x0.copy()
        vertex[i] += initial_step if vertex[i] == 0 else initial_step * abs(vertex[i]) + initial_step
        simplex.append(vertex)
    values = [float(fun(v)) for v in simplex]

    alpha, gamma, rho_c, sigma = 1.0, 2.0, 0.5, 0.5
    iterations = 0
    for iterations in range(1, max_iters + 1):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if abs(values[-1] - values[0]) < tol * (abs(values[0]) + tol):
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]

        reflected = centroid + alpha * (centroid - worst)
        f_reflected = float(fun(reflected))
        if values[0] <= f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[0]:
            expanded = centroid + gamma * (reflected - centroid)
            f_expanded = float(fun(expanded))
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        contracted = centroid + rho_c * (worst - centroid)
        f_contracted = float(fun(contracted))
        if f_contracted < values[-1]:
            simplex[-1], values[-1] = contracted, f_contracted
            continue
        # Shrink towards the best vertex.
        best = simplex[0]
        simplex = [best] + [best + sigma * (v - best) for v in simplex[1:]]
        values = [values[0]] + [float(fun(v)) for v in simplex[1:]]

    best_idx = int(np.argmin(values))
    return OptimizeResult(
        x=simplex[best_idx],
        value=values[best_idx],
        iterations=iterations,
        converged=iterations < max_iters,
    )
