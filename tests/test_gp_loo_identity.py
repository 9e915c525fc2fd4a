"""The stacked LOO calls against the bodies they replaced, to the bit.

``LooProblem.values`` checks finiteness once per stack, factorises each
finite member with ``dpotrf`` itself (``robust_cholesky`` only for a
member that is not finite or not positive definite), reads the stored
arrays without gathers when a call covers the stack in member order, and
``LooProblem.gradients`` holds ``Z_0 / 2``, ``Z_1`` and ``Kinv`` in one
``[R, 3, k, k]`` stack.  None of it may change a bit: the previous
``values``, ``gradients`` and ``factor`` are kept below verbatim as
:class:`OracleLooProblem`, and every call sequence is replayed on both.
Differential, so the tests hold on any BLAS build.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dtrtri

from repro.gp.loo import LooProblem
from repro.gp.regression import robust_cholesky
from repro.tolerances import LOO_DIAGONAL_FLOOR

_LOG_2PI = np.log(2.0 * np.pi)


# ------------------------------------------------------------------ oracle
class OracleLooProblem(LooProblem):
    """The previous stacked calls, unchanged but for the class they sit on
    (``__init__`` is shared: it did not change)."""

    def values(self, log_params: np.ndarray, members) -> tuple[np.ndarray, dict]:
        self.value_calls += 1
        members = np.asarray(members, dtype=np.intp)
        log_params = np.clip(log_params, -20.0, 20.0)
        theta_sq = np.exp(log_params) ** 2
        se = theta_sq[:, 0, None, None] * np.exp(
            self._exponent[members] / theta_sq[:, 1, None, None]
        )
        cov = se + theta_sq[:, 2, None, None] * self._eye
        # K^-1 = L^-T L^-1: one triangular inverse per member, one stacked
        # product (exactly symmetric) for all of them.
        inverse = np.empty_like(cov)
        failed = {}
        for at, matrix in enumerate(cov):
            try:
                lower, _ = robust_cholesky(matrix)
                inverse[at], info = dtrtri(lower, lower=1)
                if info != 0:
                    raise np.linalg.LinAlgError(
                        f"LAPACK dtrtri: singular factor (info {info})"
                    )
            except Exception as error:  # noqa: BLE001 - fails this member
                failed[at] = error.with_traceback(None)
                inverse[at] = self._eye
        kinv = inverse.transpose(0, 2, 1) @ inverse
        alpha = (kinv @ self._y[members, :, None])[:, :, 0]
        diag = np.maximum(
            np.diagonal(kinv, axis1=1, axis2=2), LOO_DIAGONAL_FLOOR
        )
        self._kept = (
            {int(m): at for at, m in enumerate(members)},
            log_params, theta_sq, se, kinv, alpha, diag,
        )
        values = 0.5 * (alpha * alpha / diag - np.log(diag)).sum(axis=1) + (
            0.5 * alpha.shape[1] * _LOG_2PI
        )
        values[list(failed)] = np.nan
        return values, failed

    def gradients(self, members) -> np.ndarray:
        if self._kept is None:
            raise RuntimeError("values() must be called first")
        self.gradient_calls += 1
        position, _, theta_sq, se, kinv, alpha, diag = self._kept
        at = np.array([position[int(m)] for m in members], dtype=np.intp)
        theta_sq, se, kinv, alpha, diag = (
            theta_sq[at], se[at], kinv[at], alpha[at], diag[at]
        )
        # Z_0 / 2 and Z_1 of every member, [R, k, k] each.
        z0 = kinv @ se
        z1 = kinv @ (
            se * (self._sq[np.asarray(members, dtype=np.intp)]
                  / theta_sq[:, 1, None, None])
        )
        # Per point: alpha_i (Z alpha)_i / Kinv_ii and the (Z Kinv)_ii
        # weight, against [Z alpha] and [diag Z Kinv] for Z_0 / 2, Z_1 and
        # Kinv (which is symmetric).
        ratio = alpha / diag
        weight = 0.5 * (1.0 + alpha * ratio) / diag
        column = alpha[:, :, None]
        products = np.stack(
            [(z0 @ column)[:, :, 0], (z1 @ column)[:, :, 0],
             (kinv @ column)[:, :, 0]],
            axis=1,
        )
        diagonals = np.stack(
            [(z0 * kinv).sum(axis=2), (z1 * kinv).sum(axis=2),
             (kinv * kinv).sum(axis=2)],
            axis=1,
        )
        grads = -(
            ratio[:, None, :] * products - weight[:, None, :] * diagonals
        ).sum(axis=2)
        grads[:, 0] *= 2.0
        grads[:, 2] *= 2.0 * theta_sq[:, 2]
        return grads

    def factor(self, member: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        position, log_params, _, _, kinv, alpha, _ = self._kept
        at = position[member]
        return log_params[at], kinv[at], alpha[at]


# -------------------------------------------------------------- comparison
def same_bits(mine: np.ndarray, theirs: np.ndarray) -> bool:
    """Equal shapes and bytes: every float to the bit, NaN in the same
    positions (each failed row is the one ``np.nan`` written)."""
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    return mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()


def failures(failed: dict) -> dict:
    return {at: (type(error), str(error)) for at, error in failed.items()}


def replay(inputs, targets, calls) -> list:
    """Run ``calls`` — ``(log theta [R, 3], members, gradient members)``
    each — on a :class:`LooProblem` and on the oracle; assert every
    answer equal to the bit and return the failures seen."""
    problem, oracle = LooProblem(inputs, targets), OracleLooProblem(inputs, targets)
    seen = []
    for log_params, members, asked in calls:
        values, failed = problem.values(log_params, members)
        want, want_failed = oracle.values(log_params, members)
        assert same_bits(values, want), (values, want)
        assert failures(failed) == failures(want_failed)
        seen.append(failures(failed))
        survivors = [m for at, m in enumerate(members) if at not in failed]
        for member in survivors:
            for mine, theirs in zip(problem.factor(member), oracle.factor(member)):
                assert same_bits(mine, theirs)
        asked = [m for m in asked if m in survivors]
        if asked:
            assert same_bits(problem.gradients(asked), oracle.gradients(asked))
    assert (problem.value_calls, problem.gradient_calls) == (
        oracle.value_calls, oracle.gradient_calls
    )
    return seen


# -------------------------------------------------------------- the inputs
def neighbour_sets(rng, size, k, length, duplicates):
    """``size`` neighbour sets of ``k`` segments of ``length`` points,
    each a random walk; with ``duplicates`` a few rows are near-copies of
    another row (1e-9 apart), the conditioning the jitter ladder is for."""
    inputs = []
    for _ in range(size):
        x = np.cumsum(rng.normal(size=(k, length)), axis=1) / np.sqrt(length)
        if duplicates and k > 1:
            for row in rng.choice(k, size=max(1, k // 4), replace=False):
                x[row] = x[(row + 1) % k] + 1e-9 * rng.normal(size=length)
        inputs.append(x)
    return inputs, rng.normal(size=(size, k))


def log_points(rng, count, length, kinds):
    """Rows of ``log theta`` around a data-driven start, or with one
    coordinate at the +-20 clip, past it, at a noise that rounds away, or
    NaN."""
    points = np.column_stack([
        rng.uniform(-2.0, 2.0, count),
        0.5 * np.log(length) + rng.uniform(-3.0, 3.0, count),
        rng.uniform(-6.0, 1.0, count),
    ])
    for row, kind in enumerate(kinds):
        column = int(rng.integers(3))
        if kind == "clip":
            points[row, column] = rng.choice([-20.0, 20.0])
        elif kind == "past":
            points[row, column] = rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 60.0)
        elif kind == "tiny-noise":
            points[row, 2] = -20.0
        elif kind == "nan":
            points[row, column] = np.nan
    return points


_KINDS = st.sampled_from(
    ["plain", "plain", "plain", "clip", "past", "tiny-noise", "nan"]
)


@st.composite
def call_sequences(draw):
    """A stack of 1-10 members (k in 1..32, inputs of length 8-96) and
    three value calls (a point may be NaN), each over the whole stack in order, the whole
    stack out of order, or a subset in any order, followed by gradients
    of all, a prefix or a shuffled subset of the members just valued."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size, k = draw(st.integers(1, 10)), draw(st.integers(1, 32))
    length = draw(st.integers(8, 96))
    duplicates = draw(st.booleans())
    inputs, targets = neighbour_sets(rng, size, k, length, duplicates)
    calls = []
    for _ in range(3):
        shape = draw(st.sampled_from(["in order", "permuted", "subset"]))
        if shape == "in order":
            members = list(range(size))
        elif shape == "permuted":
            members = draw(st.permutations(range(size)))
        else:
            members = draw(st.lists(
                st.integers(0, size - 1), min_size=1, max_size=size, unique=True
            ))
        kinds = draw(st.lists(_KINDS, min_size=len(members), max_size=len(members)))
        asked = draw(st.sampled_from(["all", "prefix", "shuffled"]))
        if asked == "all":
            asked = list(members)
        elif asked == "prefix":
            asked = list(members[: draw(st.integers(1, len(members)))])
        else:
            asked = draw(st.permutations(members))[: draw(
                st.integers(1, len(members))
            )]
        event(f"values {shape}")
        calls.append((log_points(rng, len(members), length, kinds), members, asked))
    return inputs, targets, calls


# ------------------------------------------------------------------- tests
class TestAgainstTheOracle:
    @settings(max_examples=200, deadline=None)
    @given(call_sequences())
    def test_every_call_sequence_is_bit_identical(self, case):
        inputs, targets, calls = case
        for (points, _, _), failed in zip(calls, replay(inputs, targets, calls)):
            for at in np.flatnonzero(np.isnan(points).any(axis=1)):
                assert failed[at] == (
                    ValueError, "matrix must not contain infs or NaNs"
                )
            for kind, _ in failed.values():
                event(f"failed: {kind.__name__}")

    @pytest.mark.parametrize("k", [2, 8, 16, 32])
    def test_near_duplicates_reach_the_jitter_ladder(self, k):
        """Exact duplicate rows under a noise that rounds away: ``dpotrf``
        refuses every member as given, so each is factorised with jitter
        (or fails with the ladder's error), and still matches."""
        rng = np.random.default_rng(k)
        inputs, targets = neighbour_sets(rng, 4, k, 24, duplicates=False)
        for x in inputs:
            x[1::2] = x[0::2][: len(x[1::2])]
        points = log_points(rng, 4, 24, ["tiny-noise"] * 4)
        points[:, 0] = 0.0
        problem = LooProblem(inputs, targets)
        for member, point in enumerate(points):
            theta_sq = np.exp(point) ** 2
            cov = theta_sq[0] * np.exp(
                problem._exponent[member] / theta_sq[1]
            ) + theta_sq[2] * np.eye(k)
            assert dpotrf(cov, lower=1, clean=1)[1] > 0
        replay(inputs, targets, [
            (points, [0, 1, 2, 3], [0, 1, 2, 3]),
            (points[[2, 0]], [2, 0], [0]),
        ])

    def test_a_member_valued_at_nan_fails_alone_with_value_error(self):
        rng = np.random.default_rng(5)
        inputs, targets = neighbour_sets(rng, 5, 8, 32, duplicates=False)
        points = log_points(rng, 5, 32, ["plain", "plain", "nan", "plain", "plain"])
        for members in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2]):
            at = members.index(2)
            (failed,) = replay(
                inputs, targets, [(points[members], members, members)]
            )
            assert failed == {at: (
                ValueError, "matrix must not contain infs or NaNs"
            )}
            values, _ = LooProblem(inputs, targets).values(points[members], members)
            assert np.flatnonzero(np.isnan(values)).tolist() == [at]

    def test_one_ulp_fails_the_comparison(self):
        """Negative control: the comparison sees a one-ulp change."""
        rng = np.random.default_rng(9)
        inputs, targets = neighbour_sets(rng, 3, 8, 32, duplicates=False)
        problem = LooProblem(inputs, targets)
        values, _ = problem.values(log_points(rng, 3, 32, ["plain"] * 3), [0, 1, 2])
        grads = problem.gradients([0, 1, 2])
        assert same_bits(values, values.copy())
        bumped = values.copy()
        bumped[1] = np.nextafter(bumped[1], np.inf)
        assert not same_bits(values, bumped)
        bumped = grads.copy()
        bumped[2, 1] = np.nextafter(bumped[2, 1], -np.inf)
        assert not same_bits(grads, bumped)
