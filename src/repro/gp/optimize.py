"""Optimisers for online GP training (Section 5.2.2) and baselines.

* :func:`conjugate_gradient_minimize` — Polak-Ribière+ conjugate gradient
  with Armijo backtracking.  Supports the paper's two training regimes:
  full optimisation for the initial query and *fixed-step* pursuit
  (``max_iters=5``) warm-started from the previous step's
  hyperparameters for continuous prediction.
* :func:`nelder_mead_minimize` — derivative-free simplex search used by
  the Holt-Winters and sparse-GP baselines (whose objectives we do not
  differentiate analytically).

Both are dependency-free re-implementations; correctness is checked on
standard test functions and against known optima in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

__all__ = [
    "Objective",
    "OptimizeResult",
    "conjugate_gradient_minimize",
    "nelder_mead_minimize",
]

ValueAndGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]


class Objective(Protocol):
    """What :func:`conjugate_gradient_minimize` minimises.

    The value is asked for at every line-search candidate, the gradient
    only at the start point and at each candidate the search accepts —
    so an implementation keeps what ``value`` computed and pays for the
    gradient on demand (:class:`repro.gp.loo.LooProblem`).
    """

    def value(self, x: np.ndarray) -> float:
        """Objective at ``x``."""
        ...

    def gradient(self) -> np.ndarray:
        """Gradient at the point last passed to :meth:`value`."""
        ...


class _PlainObjective:
    """A plain ``x -> (value, gradient)`` callable as an :class:`Objective`."""

    def __init__(self, fun: ValueAndGrad) -> None:
        self._fun = fun
        self._grad = np.empty(0)

    def value(self, x: np.ndarray) -> float:
        value, self._grad = self._fun(x)
        return value

    def gradient(self) -> np.ndarray:
        return self._grad


class _Counted:
    """An :class:`Objective` with what one run asks of it counted."""

    def __init__(self, objective: Objective) -> None:
        self._objective = objective
        self.evaluations = 0
        self.gradient_evaluations = 0

    def value(self, x: np.ndarray) -> float:
        self.evaluations += 1
        return self._objective.value(x)

    def gradient(self) -> np.ndarray:
        self.gradient_evaluations += 1
        return self._objective.gradient()


@dataclass
class OptimizeResult:
    """Terminal state of an optimisation run.

    ``evaluations`` / ``gradient_evaluations`` count what
    :func:`conjugate_gradient_minimize` asked of its objective (0 from
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


def _backtracking_line_search(
    objective: Objective,
    x: np.ndarray,
    value: float,
    grad: np.ndarray,
    direction: np.ndarray,
    initial_step: float = 1.0,
    armijo: float = 1e-4,
    shrink: float = 0.5,
    max_backtracks: int = 25,
) -> tuple[np.ndarray, float, np.ndarray, float] | None:
    """Armijo backtracking along ``direction``; None when no progress.

    Candidates are valued only; the gradient is taken at the one returned.
    """
    slope = float(grad @ direction)
    if slope >= 0:
        return None
    step = initial_step
    for _ in range(max_backtracks):
        candidate = x + step * direction
        cand_value = objective.value(candidate)
        if np.isfinite(cand_value) and cand_value <= value + armijo * step * slope:
            return candidate, cand_value, objective.gradient(), step
        step *= shrink
    return None


def conjugate_gradient_minimize(
    fun: Objective | ValueAndGrad,
    x0: np.ndarray,
    max_iters: int = 100,
    grad_tol: float = 1e-6,
    value_tol: float = 1e-10,
    initial_step: float = 1.0,
) -> OptimizeResult:
    """Polak-Ribière+ CG with restarts and Armijo backtracking.

    ``fun`` is an :class:`Objective` or a plain callable returning
    ``(value, gradient)``.  The first line search starts at
    ``initial_step`` (in ``(0, 1]``); every later one, the
    steepest-descent restart included, at ``min(1, 2 × the last accepted
    step)``.  No search starts above 1.0, and from a power-of-two
    ``initial_step`` every candidate is a rung of the 1, 1/2, 1/4, …
    ladder.
    """
    if not 0.0 < initial_step <= 1.0:
        raise ValueError(f"initial_step must be in (0, 1], got {initial_step}")
    objective = _Counted(_PlainObjective(fun) if callable(fun) else fun)
    x = np.asarray(x0, dtype=np.float64).copy()
    value = objective.value(x)
    if not np.isfinite(value):
        raise ValueError(f"objective not finite at the start point: {value}")
    grad = objective.gradient()
    direction = -grad
    iterations = 0
    converged = False
    accepted = start = initial_step
    for iterations in range(1, max_iters + 1):
        if np.linalg.norm(grad) < grad_tol:
            converged = True
            break
        result = _backtracking_line_search(
            objective, x, value, grad, direction, start
        )
        if result is None:
            # Bad direction (stale conjugacy): restart with steepest descent.
            result = _backtracking_line_search(
                objective, x, value, grad, -grad, start
            )
            if result is None:
                break
        new_x, new_value, new_grad, accepted = result
        # A step accepted at a first try below 1.0 was never tested
        # longer, so a small decrease there is not evidence of a minimum.
        untested = accepted == start < 1.0
        start = min(1.0, 2.0 * accepted)
        stalled = value - new_value < value_tol * (abs(value) + value_tol)
        if stalled and not untested:
            x, value, grad = new_x, new_value, new_grad
            converged = True
            break
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
        x, value, grad = new_x, new_value, new_grad
    return OptimizeResult(
        x=x,
        value=value,
        iterations=iterations,
        converged=converged,
        evaluations=objective.evaluations,
        gradient_evaluations=objective.gradient_evaluations,
        step=accepted,
    )


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
