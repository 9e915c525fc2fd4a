"""Tests for the CG and Nelder-Mead optimisers."""

import numpy as np
import pytest

from repro.gp import conjugate_gradient_minimize, nelder_mead_minimize
from repro.gp import optimize


def quadratic(center, scales):
    center = np.asarray(center, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)

    def fun(x):
        diff = x - center
        value = float(np.sum(scales * diff**2))
        grad = 2.0 * scales * diff
        return value, grad

    return fun


def rosenbrock(x):
    a, b = 1.0, 100.0
    value = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    grad = np.array(
        [
            -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
            2 * b * (x[1] - x[0] ** 2),
        ]
    )
    return float(value), grad


class TestConjugateGradient:
    def test_quadratic_exact(self):
        fun = quadratic([3.0, -2.0, 1.0], [1.0, 5.0, 0.5])
        result = conjugate_gradient_minimize(fun, np.zeros(3), max_iters=200)
        np.testing.assert_allclose(result.x, [3.0, -2.0, 1.0], atol=1e-4)
        assert result.converged

    def test_rosenbrock_progress(self):
        result = conjugate_gradient_minimize(
            rosenbrock, np.array([-1.2, 1.0]), max_iters=2000, grad_tol=1e-8
        )
        assert result.value < 1e-5

    def test_fixed_step_budget_respected(self):
        """The paper's online training runs exactly 5 CG steps."""
        fun = quadratic(np.full(4, 10.0), np.ones(4))
        result = conjugate_gradient_minimize(fun, np.zeros(4), max_iters=5)
        assert result.iterations <= 5

    def test_monotone_decrease(self):
        values = []

        def tracked(x):
            v, g = rosenbrock(x)
            values.append(v)
            return v, g

        conjugate_gradient_minimize(tracked, np.array([0.5, 0.5]), max_iters=50)
        accepted = [values[0]]
        for v in values[1:]:
            if v <= accepted[-1]:
                accepted.append(v)
        assert accepted[-1] < accepted[0]

    def test_already_at_optimum(self):
        fun = quadratic([0.0, 0.0], [1.0, 1.0])
        result = conjugate_gradient_minimize(fun, np.zeros(2))
        assert result.converged
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_non_finite_start_rejected(self):
        def bad(x):
            return np.inf, np.zeros_like(x)

        with pytest.raises(ValueError):
            conjugate_gradient_minimize(bad, np.zeros(2))


def traced_searches(monkeypatch):
    """Record ``(starting step, accepted step or None)`` per line search."""
    searches = []
    search = optimize._backtracking_line_search

    def recording(objective, x, value, grad, direction, initial_step=1.0, **kw):
        result = search(objective, x, value, grad, direction, initial_step, **kw)
        searches.append((initial_step, None if result is None else result[3]))
        return result

    monkeypatch.setattr(optimize, "_backtracking_line_search", recording)
    return searches


PROBLEMS = {
    "quadratic": (quadratic([3.0, -2.0, 1.0], [1.0, 5.0, 0.5]), np.zeros(3)),
    "ill-scaled quadratic": (quadratic([1.0, 1.0], [1.0, 400.0]), np.zeros(2)),
    "rosenbrock": (rosenbrock, np.array([-1.2, 1.0])),
}


class TestStepMemory:
    """The first line search starts at ``initial_step``; every later one —
    the steepest-descent restart too — at ``min(1, 2 × the last accepted
    step)``."""

    @pytest.mark.parametrize("initial_step", [1.0, 0.25, 2.0**-10, 1e-12])
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_where_each_search_starts(self, monkeypatch, problem, initial_step):
        searches = traced_searches(monkeypatch)
        fun, x0 = PROBLEMS[problem]
        result = conjugate_gradient_minimize(
            fun, x0, max_iters=60, initial_step=initial_step
        )
        assert searches[0][0] == initial_step
        expected, last = initial_step, None
        for start, accepted in searches:
            assert start == expected
            if accepted is not None:
                assert accepted <= start
                last = accepted
                expected = min(1.0, 2.0 * accepted)
        assert last is not None
        assert result.step == last

    def test_restart_starts_where_the_failed_search_did(self, monkeypatch):
        """Scripted so that the conjugate direction after the first step is
        uphill: that search fails before any evaluation, and the
        steepest-descent retry starts at the same doubled step."""
        searches = traced_searches(monkeypatch)

        class Scripted:
            values = iter([0.0, -1.0, -2.0])
            # g1 = (-1, 0.1) after d0 = (-1, 0): beta = 2.01, slope +1.0.
            gradients = iter([np.array([1.0, 0.0]), np.array([-1.0, 0.1]),
                              np.zeros(2)])

            def value(self, x):
                return next(self.values)

            def gradient(self):
                return next(self.gradients)

        result = conjugate_gradient_minimize(
            Scripted(), np.zeros(2), initial_step=0.125
        )
        assert searches == [(0.125, 0.125), (0.25, None), (0.25, 0.25)]
        assert result.converged and result.step == 0.25

    def test_no_search_starts_above_one(self, monkeypatch):
        searches = traced_searches(monkeypatch)
        conjugate_gradient_minimize(
            quadratic(np.full(4, 10.0), np.ones(4)), np.zeros(4),
            max_iters=20, initial_step=1.0,
        )
        assert max(start for start, _ in searches) == 1.0

    def test_step_reported_without_a_search(self):
        fun = quadratic([0.0, 0.0], [1.0, 1.0])
        result = conjugate_gradient_minimize(fun, np.zeros(2), initial_step=0.125)
        assert result.converged and result.iterations == 1
        assert result.step == 0.125

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, np.nan, np.inf])
    def test_initial_step_outside_zero_one_is_refused(self, bad):
        """A zero step would be accepted forever without moving; one above
        1.0 is longer than any search may start."""
        fun, x0 = PROBLEMS["quadratic"]
        with pytest.raises(ValueError, match="initial_step"):
            conjugate_gradient_minimize(fun, x0, initial_step=bad)

    def test_default_starts_at_one(self, monkeypatch):
        searches = traced_searches(monkeypatch)
        conjugate_gradient_minimize(rosenbrock, np.array([-1.2, 1.0]), max_iters=5)
        assert searches[0][0] == 1.0

    def test_tiny_remembered_step_recovers(self):
        """A remembered step of 1e-12 doubles back up and still converges."""
        fun, x0 = PROBLEMS["quadratic"]
        result = conjugate_gradient_minimize(
            fun, x0, max_iters=200, initial_step=1e-12
        )
        np.testing.assert_allclose(result.x, [3.0, -2.0, 1.0], atol=1e-4)
        assert result.converged and result.step > 1e-3
        result = conjugate_gradient_minimize(
            rosenbrock, np.array([-1.2, 1.0]), max_iters=2000, grad_tol=1e-8,
            initial_step=1e-12,
        )
        assert result.value < 1e-5


class TestLineSearch:
    """``_backtracking_line_search`` from any start: ``max_backtracks``
    halvings, non-finite candidates passed over."""

    @staticmethod
    def tried(values):
        steps = []

        class Line:
            def value(self, x):
                steps.append(float(x[0]))
                return values(float(x[0]))

            def gradient(self):
                return np.array([0.0])

        return Line(), steps

    @pytest.mark.parametrize("initial_step", [1.0, 0.25])
    def test_max_backtracks(self, initial_step):
        line, steps = self.tried(lambda s: 1.0)  # never below the start
        result = optimize._backtracking_line_search(
            line, np.zeros(1), 0.0, np.array([-1.0]), np.array([1.0]),
            initial_step, max_backtracks=5,
        )
        assert result is None
        assert steps == [initial_step * 0.5**j for j in range(5)]

    @pytest.mark.parametrize("beyond", [np.inf, np.nan])
    @pytest.mark.parametrize("initial_step", [1.0, 0.25])
    def test_non_finite_candidates_are_passed_over(self, beyond, initial_step):
        # f(s) = (s - 0.05)^2 - 0.0025 below a wall at s = 0.1.
        line, steps = self.tried(
            lambda s: (s - 0.05) ** 2 - 0.0025 if s < 0.1 else beyond
        )
        result = optimize._backtracking_line_search(
            line, np.zeros(1), 0.0, np.array([-0.1]), np.array([1.0]),
            initial_step,
        )
        accepted = result[3]
        assert accepted == 0.0625
        assert steps[-1] == accepted and all(s >= 0.1 for s in steps[:-1])
        assert steps[0] == initial_step

    def test_not_downhill_is_refused_before_any_evaluation(self):
        line, steps = self.tried(lambda s: 0.0)
        assert optimize._backtracking_line_search(
            line, np.zeros(1), 0.0, np.array([1.0]), np.array([1.0]), 0.5
        ) is None
        assert steps == []


class TestNelderMead:
    def test_quadratic(self):
        result = nelder_mead_minimize(
            lambda x: float(np.sum((x - 2.0) ** 2)), np.zeros(3), max_iters=500
        )
        np.testing.assert_allclose(result.x, 2.0, atol=1e-3)

    def test_rosenbrock_2d(self):
        result = nelder_mead_minimize(
            lambda x: rosenbrock(x)[0], np.array([-1.0, 1.5]), max_iters=2000
        )
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-2)

    def test_handles_inf_regions(self):
        def guarded(x):
            if x[0] < 0:
                return np.inf
            return float((x[0] - 1.0) ** 2 + x[1] ** 2)

        result = nelder_mead_minimize(guarded, np.array([2.0, 2.0]), max_iters=500)
        assert result.value < 1e-4

    def test_iteration_budget(self):
        calls = {"n": 0}

        def counting(x):
            calls["n"] += 1
            return float(np.sum(x**2))

        nelder_mead_minimize(counting, np.ones(2), max_iters=10)
        # Each NM iteration evaluates a handful of vertices at most.
        assert calls["n"] < 10 * 6 + 10
