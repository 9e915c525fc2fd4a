"""Leave-one-out predictive likelihood and its gradients (Section 5.2.2).

The semi-lazy GP trains its hyperparameters by maximising the LOO log
predictive probability (paper Eqns. 19-20, following Sundararajan &
Keerthi [64] / GPML Section 5.4.2).  The "inversion of the partitioned
matrix" trick the paper cites is exactly the identity used here: with
``Kinv = C^{-1}`` and ``alpha = C^{-1} y``,

    mu_i      = y_i - alpha_i / Kinv_ii
    sigma_i^2 = 1 / Kinv_ii

so all n leave-one-out posteriors come from ONE factorisation instead of
n rank-down-dated ones.  Gradients w.r.t. ``log theta_j`` follow GPML
Eqn. 5.13 and are verified against finite differences in the tests.

All of it lives in :class:`LooProblem`: one object per stack of training
problems of one size ``k`` that holds what the hyperparameters cannot
change (the pairwise squared distances, the targets, the identity) and
splits an evaluation into the value every line-search candidate needs and
the gradient only an accepted one does — for every member of the stack
in one call.  :func:`loo_quantities`, :func:`loo_log_likelihood` and
:func:`loo_objective` are one-shot views of a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from ..tolerances import LOO_DIAGONAL_FLOOR
from .kernels import SquaredExponentialKernel, squared_distances
from .regression import robust_cholesky

__all__ = [
    "LooProblem",
    "LooResult",
    "loo_quantities",
    "loo_log_likelihood",
    "loo_objective",
]

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class LooResult:
    """LOO means/variances plus the total log predictive likelihood."""

    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float


class LooProblem:
    """The LOO training problems of a stack of ``(inputs, targets)`` sets
    with one neighbour count ``k`` (the input lengths may differ).

    Every member is factorised on its own — LAPACK ``dpotrf`` as
    :func:`~repro.gp.regression.robust_cholesky` calls it after one
    finiteness check per stack, or ``robust_cholesky`` itself (its errors
    and jitter ladder) for a member not finite or not positive definite —
    and every stacked operation works per member along the last axes, so
    a member's numbers do not depend on what shares its stack; a member
    whose factorisation raises fails alone.  A call over the whole stack
    in member order reads the stored arrays without gathers.
    """

    def __init__(self, inputs, targets) -> None:
        self._y = np.asarray(targets, dtype=np.float64)
        if self._y.ndim != 2 or self._y.shape[0] != len(inputs):
            raise ValueError(
                f"expected one target row per input set, got targets "
                f"{self._y.shape} for {len(inputs)} input sets"
            )
        members, k = self._y.shape
        self._sq = np.empty((members, k, k))
        for member, x in enumerate(inputs):
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
            if x.shape[0] != k:
                raise ValueError(f"{x.shape[0]} inputs but {k} targets")
            self._sq[member] = squared_distances(x, x)
        self._exponent = -0.5 * self._sq  # times 1 / theta1^2, per evaluation
        self._eye = np.eye(k)
        self._stack = list(range(members))
        self._kept: tuple | None = None
        #: Stacked :meth:`values` / :meth:`gradients` calls made so far.
        self.value_calls = self.gradient_calls = 0

    def values(self, log_params: np.ndarray, members) -> tuple[np.ndarray, dict]:
        """Negative LOO log likelihood of each of ``members`` at its row of
        ``log theta [R, 3]`` (the optimiser minimises, hence the sign), and
        ``{position: exception}`` for the members that failed (NaN).

        With ``mu_i - y_i = -alpha_i / Kinv_ii`` and ``sigma_i^2 = 1 /
        Kinv_ii``, ``-log p_i = (alpha_i^2 / Kinv_ii - log Kinv_ii + log
        2 pi) / 2``.
        """
        self.value_calls += 1
        members = list(members)
        if members == self._stack:
            exponent, y = self._exponent, self._y
        else:
            exponent, y = self._exponent[members], self._y[members]
        log_params = log_params.clip(-20.0, 20.0)
        theta_sq = np.exp(log_params) ** 2
        se = theta_sq[:, 0, None, None] * np.exp(
            exponent / theta_sq[:, 1, None, None]
        )
        cov = se + theta_sq[:, 2, None, None] * self._eye
        # K^-1 = L^-T L^-1: one triangular inverse per member, one stacked
        # product (exactly symmetric) for all of them.
        finite = np.isfinite(cov).all(axis=(1, 2)).tolist()
        inverse = np.empty_like(cov)
        failed = {}
        for at, matrix in enumerate(cov):
            try:
                if finite[at]:
                    lower, info = dpotrf(matrix, lower=1, clean=1)
                if not finite[at] or info != 0:
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
        alpha = (kinv @ y[:, :, None])[:, :, 0]
        diag = np.maximum(kinv.diagonal(0, 1, 2), LOO_DIAGONAL_FLOOR)
        self._kept = (members, log_params, theta_sq, se, kinv, alpha, diag)
        values = 0.5 * (alpha * alpha / diag - np.log(diag)).sum(axis=1) + (
            0.5 * alpha.shape[1] * _LOG_2PI
        )
        if failed:
            values[list(failed)] = np.nan
        return values, failed

    def gradients(self, members) -> np.ndarray:
        """``[R, 3]`` gradients w.r.t. ``log theta`` of ``members`` (a
        subset of the last :meth:`values` call's) where they were valued.

        GPML eq. 5.13: for each hyperparameter j with
        ``Z_j = Kinv dK/dtheta_j``,

            dL/dtheta_j = sum_i [ alpha_i (Z_j alpha)_i
                          - 0.5 (1 + alpha_i^2 / Kinv_ii) (Z_j Kinv)_ii ]
                          / Kinv_ii

        The theta2 term is algebraic: ``dK/dlog theta2 = 2 theta2^2 I``,
        so ``Z_2 = 2 theta2^2 Kinv`` needs only ``Kinv alpha`` and
        ``diag(Kinv^2)``.  The theta0 term is not: its algebraic form,
        ``Z_0 = 2 (I - theta2^2 Kinv)``, cancels ``theta2^2 Kinv`` against
        ``I`` and loses every digit on near-duplicate neighbours under a
        noise term that rounds away, so ``Kinv dK_0`` is a stacked matrix
        product, as ``Kinv dK_1`` is.  ``Z_0 / 2``, ``Z_1`` and ``Kinv``
        of every member are one ``[R, 3, k, k]`` stack: one product with
        ``alpha`` and one product-sum with ``Kinv`` serve all three.
        """
        if self._kept is None:
            raise RuntimeError("values() must be called first")
        self.gradient_calls += 1
        members = list(members)
        valued, _, theta_sq, se, kinv, alpha, diag = self._kept
        if members != valued:
            at = [valued.index(member) for member in members]
            theta_sq, se, kinv, alpha, diag = (
                theta_sq[at], se[at], kinv[at], alpha[at], diag[at]
            )
        sq = self._sq if members == self._stack else self._sq[members]
        z = np.empty((len(members), 3) + kinv.shape[1:])
        np.matmul(kinv, se, out=z[:, 0])
        np.matmul(kinv, se * (sq / theta_sq[:, 1, None, None]), out=z[:, 1])
        z[:, 2] = kinv
        # Per point: alpha_i (Z alpha)_i / Kinv_ii and the (Z Kinv)_ii
        # weight, against [Z alpha] and [diag Z Kinv] for Z_0 / 2, Z_1 and
        # Kinv (which is symmetric).
        ratio = alpha / diag
        weight = 0.5 * (1.0 + alpha * ratio) / diag
        products = (z @ alpha[:, None, :, None])[..., 0]
        diagonals = (z * kinv[:, None]).sum(axis=3)
        grads = -(
            ratio[:, None, :] * products - weight[:, None, :] * diagonals
        ).sum(axis=2)
        grads[:, 0] *= 2.0
        grads[:, 2] *= 2.0 * theta_sq[:, 2]
        return grads

    def factor(self, member: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(log theta, K^-1, alpha)`` of ``member`` where the last
        :meth:`values` call valued it (``log theta`` clipped as the
        evaluation clipped it)."""
        valued, log_params, _, _, kinv, alpha, _ = self._kept
        at = valued.index(member)
        return log_params[at], kinv[at], alpha[at]


def loo_quantities(
    kernel: SquaredExponentialKernel, x: np.ndarray, y: np.ndarray
) -> LooResult:
    """LOO posterior for every held-out training point (Eqn. 19):
    ``mu_i = y_i - alpha_i / Kinv_ii``, ``sigma_i^2 = 1 / Kinv_ii``."""
    problem, values = _one(kernel.log_params, x, y)
    _, kinv, alpha = problem.factor(0)
    diag = np.maximum(kinv.diagonal(), LOO_DIAGONAL_FLOOR)
    return LooResult(problem._y[0] - alpha / diag, 1.0 / diag, -float(values[0]))


def loo_log_likelihood(
    kernel: SquaredExponentialKernel, x: np.ndarray, y: np.ndarray
) -> float:
    """``L(X, Y, Theta)`` of Eqn. 20."""
    return loo_quantities(kernel, x, y).log_likelihood


def loo_objective(
    log_params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Negative LOO log likelihood and gradient w.r.t. ``log theta``:
    one evaluation of a :class:`LooProblem` stack of one."""
    problem, values = _one(log_params, x, y)
    return float(values[0]), problem.gradients([0])[0]


def _one(log_params, x, y) -> tuple[LooProblem, np.ndarray]:
    """A stack of one, valued at ``log_params``; its failure raised."""
    problem = LooProblem([x], np.asarray(y, dtype=np.float64).ravel()[None, :])
    values, failed = problem.values(
        np.asarray(log_params, dtype=np.float64)[None, :], [0]
    )
    if failed:
        raise failed[0]
    return problem, values
