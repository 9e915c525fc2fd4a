"""GP training is one LOO problem per cell per request — and computes the
same bits as the one-evaluation-at-a-time code it replaced.

Differential, not golden: every comparison is against an oracle run in
the same process, so the tests hold on any BLAS build.  The oracles are
the previous bodies of ``loo_objective``, ``robust_cholesky`` and
``_penalised_objective``, kept here verbatim.
"""

import hashlib

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_solve, cholesky

from repro import SMiLer, SMiLerConfig
from repro.core import gp_predictor
from repro.gp import (
    LooProblem,
    SquaredExponentialKernel,
    conjugate_gradient_minimize,
    loo_objective,
    robust_cholesky,
)

_LOG_2PI = np.log(2.0 * np.pi)
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


# ------------------------------------------------------------------ oracles
def oracle_robust_cholesky(matrix):
    scale = float(np.mean(np.diag(matrix))) or 1.0
    for jitter in _JITTERS:
        try:
            lower = cholesky(
                matrix + jitter * scale * np.eye(matrix.shape[0]), lower=True
            )
            return lower, jitter * scale
        except LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "matrix is not positive definite even with jitter"
    )


def oracle_loo_objective(log_params, x, y):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    kernel = SquaredExponentialKernel.from_log_params(log_params)
    cov = kernel.matrix(x, noise=True)
    lower, _ = oracle_robust_cholesky(cov)
    kinv = cho_solve((lower, True), np.eye(y.size))
    alpha = kinv @ y
    diag = np.clip(np.diag(kinv), 1e-300, None)

    variances = 1.0 / diag
    means = y - alpha / diag
    logp = (
        -0.5 * np.log(variances)
        - (y - means) ** 2 / (2.0 * variances)
        - 0.5 * _LOG_2PI
    )
    value = -float(logp.sum())

    grads = np.empty(3)
    for j, dk in enumerate(kernel.gradients(x)):
        zj = kinv @ dk
        zj_alpha = zj @ alpha
        zj_kinv_diag = np.sum(zj * kinv.T, axis=1)
        per_point = (
            alpha * zj_alpha - 0.5 * (1.0 + alpha**2 / diag) * zj_kinv_diag
        ) / diag
        grads[j] = -float(per_point.sum())
    return value, grads


def oracle_penalised_objective(log_params, neighbours, targets):
    value, grad = oracle_loo_objective(
        np.clip(log_params, -12, 12), neighbours, targets
    )
    excess = np.clip(np.abs(log_params) - 6.0, 0.0, None)
    value += 10.0 * float(np.sum(excess**2))
    grad = grad + 2.0 * 10.0 * excess * np.sign(log_params)
    return value, grad


def bits(value, grad):
    return [float(value).hex()] + [float(g).hex() for g in grad]


def array_bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


# ------------------------------------------------- (i) one evaluation, bits
def seeded_problem(k, d, seed):
    rng = np.random.default_rng([seed, k, d])
    x = rng.normal(size=(k, d))
    y = rng.normal(size=k)
    return x, y - y.mean()


def with_duplicate_rows(x):
    x = x.copy()
    x[1::2] = x[: x.shape[0] // 2 * 2 : 2]
    return x


CLIP_CORNERS = [
    (12.0, 12.0, -12.0),
    (-12.0, -12.0, 12.0),
    (12.0, -12.0, 12.0),
    (-12.0, 12.0, -12.0),
    (12.0, 12.0, 12.0),
]


class TestOneEvaluation:
    @pytest.mark.parametrize("k", [2, 8, 16, 32])
    @pytest.mark.parametrize("d", [32, 64, 96])
    def test_value_and_gradient_bits(self, k, d):
        x, y = seeded_problem(k, d, seed=0)
        rng = np.random.default_rng([1, k, d])
        problem = LooProblem(x, y)
        for _ in range(4):
            # Length-scales around sqrt(d), where the kernel is informative.
            lp = rng.uniform(-1.5, 1.5, size=3) + [0.0, 0.5 * np.log(d), -1.0]
            expected = bits(*oracle_loo_objective(lp, x, y))
            assert bits(*loo_objective(lp, x, y)) == expected
            # The problem object, re-used across points as training does.
            assert bits(problem.value(lp), problem.gradient()) == expected

    @pytest.mark.parametrize("k", [2, 8, 16, 32])
    def test_duplicated_neighbours_tiny_noise(self, k):
        x, y = seeded_problem(k, 64, seed=2)
        x = with_duplicate_rows(x)
        for theta0 in (0.0, 3.0, 12.0):
            lp = np.array([theta0, 0.5 * np.log(64), -12.0])
            kernel = SquaredExponentialKernel.from_log_params(lp)
            cov = kernel.matrix(x, noise=True)
            lower, jitter = robust_cholesky(cov)
            oracle_lower, oracle_jitter = oracle_robust_cholesky(cov)
            assert jitter.hex() == oracle_jitter.hex()
            assert array_bits(lower) == array_bits(oracle_lower)
            assert bits(*loo_objective(lp, x, y)) == bits(
                *oracle_loo_objective(lp, x, y)
            )

    def test_singular_on_any_build_takes_the_same_jitter(self):
        """Integer coordinates, theta0 = 1 and a noise term that rounds
        away: duplicated rows give an exactly singular matrix, so the
        first factorisation fails whatever the BLAS."""
        x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0], [3.0, 0.0]])
        y = np.array([0.5, -0.5, 1.0, -1.0])
        lp = np.array([0.0, 0.0, -20.0])
        kernel = SquaredExponentialKernel.from_log_params(lp)
        _, oracle_jitter = oracle_robust_cholesky(kernel.matrix(x, noise=True))
        assert oracle_jitter > 0
        assert bits(*loo_objective(lp, x, y)) == bits(
            *oracle_loo_objective(lp, x, y)
        )

    @pytest.mark.parametrize("k", [2, 8, 32])
    def test_constant_targets(self, k):
        x, _ = seeded_problem(k, 32, seed=3)
        for y in (np.zeros(k), np.full(k, 2.5)):
            lp = np.array([0.2, 1.5, -1.0])
            assert bits(*loo_objective(lp, x, y)) == bits(
                *oracle_loo_objective(lp, x, y)
            )

    @pytest.mark.parametrize("corner", CLIP_CORNERS)
    @pytest.mark.parametrize("k", [2, 8, 32])
    def test_at_the_clip(self, corner, k):
        x, y = seeded_problem(k, 32, seed=4)
        lp = np.array(corner)
        try:
            expected = bits(*oracle_loo_objective(lp, x, y))
        except (np.linalg.LinAlgError, ValueError) as error:
            with pytest.raises(type(error)):
                loo_objective(lp, x, y)
        else:
            assert bits(*loo_objective(lp, x, y)) == expected

    def test_penalised_objective_bits(self):
        """The box penalty: value and gradient beyond |log theta| = 6,
        and the clip to +-12 beyond that."""
        x, y = seeded_problem(16, 64, seed=5)
        objective = gp_predictor._BoxedLoo(x, y)
        for lp in ([0.1, 2.0, -1.0], [7.5, 2.0, -6.5], [13.0, -14.0, 2.0]):
            lp = np.array(lp)
            assert bits(objective.value(lp), objective.gradient()) == bits(
                *oracle_penalised_objective(lp, x, y)
            )

    def test_gradient_needs_a_point(self):
        x, y = seeded_problem(4, 32, seed=6)
        with pytest.raises(RuntimeError):
            LooProblem(x, y).gradient()
        with pytest.raises(ValueError):
            LooProblem(x, y[:-1])


# --------------------------------------------- (ii) a stream, end to end
def stream(seed, length):
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    values = (
        np.sin(2.0 * np.pi * t / 48.0)
        + 0.3 * np.sin(2.0 * np.pi * t / 336.0 + 1.0)
        + 0.01 * np.cumsum(rng.normal(size=length))
        + 0.1 * rng.normal(size=length)
    )
    return (values - values.mean()) / values.std()


def run_stream(steps=40, history=700):
    values = stream(2015, history + steps)
    smiler = SMiLer(values[:history], SMiLerConfig(predictor="gp"))
    digest = hashlib.sha256()
    for value in values[history:]:
        output = smiler.predict()[1]
        digest.update((output.mean.hex() + output.variance.hex()).encode())
        smiler.observe(float(value))
    ensemble = smiler.ensemble(1)
    predictors = [ensemble.state(cell).predictor for cell in ensemble.cells]
    for predictor in predictors:
        digest.update(array_bits(predictor._log_params))
    return (
        digest.hexdigest(),
        sum(p.cg_iterations for p in predictors),
        sum(p.objective_evaluations for p in predictors),
        sum(p.gradient_evaluations for p in predictors),
        sum(p.train_calls for p in predictors),
    )


class TestStream:
    def test_native_path_equals_oracle_through_the_adapter(self, monkeypatch):
        """3 x 3 ensemble, sleep scheduler on: forecasts, trained
        hyperparameters and the optimiser's counts equal those of the
        same stream trained on the old objective handed to
        ``conjugate_gradient_minimize`` as a plain callable — which also
        pins that the adapter path and the native path are one algorithm."""
        native = run_stream()
        monkeypatch.setattr(
            gp_predictor,
            "_BoxedLoo",
            lambda x, y: lambda lp: oracle_penalised_objective(lp, x, y),
        )
        oracle = run_stream()
        assert native == oracle
        _, iterations, evaluations, gradients, trainings = native
        assert evaluations > gradients > iterations > 0
        assert trainings < 9 * 40  # the sleep scheduler did rest some cells
        # Each line search starts at twice the cell's last accepted step,
        # not at 1.0: 12.1 value evaluations per training (33.9 when every
        # search restarted at 1.0 and halved down).
        assert evaluations <= 14 * trainings


# ------------------------------------------ (iii) what the optimiser asks
def rosenbrock_value(x):
    return float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def rosenbrock_gradient(x):
    return np.array(
        [
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )


class CountingRosenbrock:
    """Records what is asked of it, and the value wherever it is graded."""

    def __init__(self):
        self.events = []
        self.graded = []

    def value(self, x):
        self.events.append("value")
        self._x = x.copy()
        return rosenbrock_value(x)

    def gradient(self):
        self.events.append("gradient")
        self.graded.append(rosenbrock_value(self._x))
        return rosenbrock_gradient(self._x)


class TestWhatTheOptimiserAsks:
    def test_gradient_only_at_start_and_accepted_steps(self):
        objective = CountingRosenbrock()
        result = conjugate_gradient_minimize(
            objective, np.array([-1.2, 1.0]), max_iters=30
        )
        events = objective.events
        assert events[:2] == ["value", "gradient"]
        # Every gradient follows the valuation of the point it is taken at.
        assert all(
            events[i - 1] == "value"
            for i, event in enumerate(events)
            if event == "gradient"
        )
        # 30 iterations, none converged: 30 accepted steps and the start.
        assert not result.converged and result.iterations == 30
        assert result.gradient_evaluations == events.count("gradient") == 31
        assert result.evaluations == events.count("value")
        assert result.evaluations > 2 * result.gradient_evaluations
        # Accepted points only: the graded values strictly decrease, which
        # no rejected candidate's would.
        assert all(b < a for a, b in zip(objective.graded, objective.graded[1:]))

    def test_plain_callable_counts_the_same(self):
        start = np.array([-1.2, 1.0])
        plain = conjugate_gradient_minimize(
            lambda x: (rosenbrock_value(x), rosenbrock_gradient(x)),
            start,
            max_iters=30,
        )
        native = conjugate_gradient_minimize(
            CountingRosenbrock(), start, max_iters=30
        )
        assert array_bits(plain.x) == array_bits(native.x)
        assert (plain.value, plain.evaluations, plain.gradient_evaluations) == (
            native.value, native.evaluations, native.gradient_evaluations
        )

    def test_non_finite_candidate_is_backtracked_past(self):
        class Walled:
            """(x - 1)^2 left of a wall at 1.5, not finite beyond it."""

            def __init__(self, beyond):
                self.beyond = beyond
                self.graded = []

            def value(self, x):
                self._x = float(x[0])
                return (self._x - 1.0) ** 2 if self._x < 1.5 else self.beyond

            def gradient(self):
                self.graded.append(self._x)
                return np.array([2.0 * (self._x - 1.0)])

        for beyond in (np.inf, np.nan):
            objective = Walled(beyond)
            # The first candidate, -3 + 8, is beyond the wall.
            result = conjugate_gradient_minimize(objective, np.array([-3.0]))
            assert result.x[0] == pytest.approx(1.0, abs=1e-6)
            assert all(x < 1.5 for x in objective.graded)
            assert result.evaluations > result.gradient_evaluations


# ------------------------------------------------------ (iv) the factoriser
class TestRobustCholesky:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, bad):
        matrix = np.array([[4.0, 1.0], [1.0, 3.0]])
        matrix[1, 0] = bad
        with pytest.raises(ValueError):
            robust_cholesky(matrix)

    def test_not_square_is_refused(self):
        with pytest.raises(ValueError):
            robust_cholesky(np.ones((2, 3)))

    def test_jittered_factor_equals_scipy(self):
        """Small-integer rank-1 matrices: exactly singular in any
        arithmetic, so the ladder is engaged on any build."""
        for v in ([1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [2.0, 0.0, 4.0, 4.0]):
            matrix = np.outer(v, v)
            lower, jitter = robust_cholesky(matrix)
            assert jitter > 0
            scale = float(np.mean(np.diag(matrix)))
            rung = round(jitter / scale, 12)
            assert rung in _JITTERS
            expected = cholesky(
                matrix + rung * scale * np.eye(len(v)), lower=True
            )
            assert jitter.hex() == (rung * scale).hex()
            assert array_bits(lower) == array_bits(expected)
            assert lower.flags.f_contiguous == expected.flags.f_contiguous

    def test_no_jitter_equals_scipy(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(32, 40))
        matrix = a @ a.T
        lower, jitter = robust_cholesky(matrix)
        assert jitter == 0.0
        assert array_bits(lower) == array_bits(cholesky(matrix, lower=True))

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_input_is_coerced_to_float64(self, dtype):
        matrix = np.array([[4, 1], [1, 3]], dtype=dtype)
        lower, jitter = robust_cholesky(matrix)
        assert lower.dtype == np.float64 and jitter == 0.0
        expected = cholesky(matrix.astype(np.float64), lower=True)
        assert array_bits(lower) == array_bits(expected)

    def test_input_is_not_overwritten(self):
        matrix = np.asfortranarray([[4.0, 1.0], [1.0, 3.0]])
        before = matrix.copy()
        robust_cholesky(matrix)
        np.testing.assert_array_equal(matrix, before)
