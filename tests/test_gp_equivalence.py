"""The accuracy-equivalence gate (``tests/gp_equivalence.py``) on the GP
step memory.

The variant is the optimiser as loaded: each Armijo line search starts at
``min(1, 2 × the last accepted step)``, per cell across requests.  The
reference is the optimiser before it remembered a step — every search
starts at 1.0 — kept below as :func:`restart_at_one`, the previous body
of ``conjugate_gradient_minimize`` verbatim (its signature only absorbs
the ``initial_step`` the predictor now passes) and monkeypatched into
``repro.core.gp_predictor`` for the reference's runs.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import gp_predictor
from repro.gp.optimize import (
    Objective,
    OptimizeResult,
    ValueAndGrad,
    _backtracking_line_search,
    _Counted,
    _PlainObjective,
)

from . import gp_equivalence as gate


# ------------------------------------------------------------------ oracle
def restart_at_one(
    fun: Objective | ValueAndGrad,
    x0: np.ndarray,
    max_iters: int = 100,
    grad_tol: float = 1e-6,
    value_tol: float = 1e-10,
    initial_step: float = 1.0,
) -> OptimizeResult:
    """Polak-Ribière+ CG with restarts and Armijo backtracking.

    ``fun`` is an :class:`Objective` or a plain callable returning
    ``(value, gradient)``.
    """
    objective = _Counted(_PlainObjective(fun) if callable(fun) else fun)
    x = np.asarray(x0, dtype=np.float64).copy()
    value = objective.value(x)
    if not np.isfinite(value):
        raise ValueError(f"objective not finite at the start point: {value}")
    grad = objective.gradient()
    direction = -grad
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        if np.linalg.norm(grad) < grad_tol:
            converged = True
            break
        result = _backtracking_line_search(objective, x, value, grad, direction)
        if result is None:
            # Bad direction (stale conjugacy): restart with steepest descent.
            result = _backtracking_line_search(objective, x, value, grad, -grad)
            if result is None:
                break
        new_x, new_value, new_grad, _ = result
        if value - new_value < value_tol * (abs(value) + value_tol):
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
    )


@pytest.fixture(scope="module")
def runs():
    """(variant, reference): every dataset × seed, both sides."""
    variant = gate.collect()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp_predictor, "conjugate_gradient_minimize", restart_at_one)
        reference = gate.collect()
    return variant, reference


def pooled(runs, key):
    """Per-training count ``key`` over every run."""
    total = {"values": "evaluations", "gradients": "gradient_evaluations",
             "cg": "cg_iterations"}[key]
    return sum(getattr(r, total) for r in runs.values()) / sum(
        r.trainings for r in runs.values()
    )


class TestGate:
    def test_step_memory_passes(self, runs):
        variant, reference = runs
        assert gate.violations(variant, reference) == []

    def test_it_is_the_same_streams(self, runs):
        variant, reference = runs
        assert variant.keys() == reference.keys()
        assert len(variant) == len(gate.DATASETS) * len(gate.SEEDS)
        for key, run in variant.items():
            assert np.array_equal(run.truth, reference[key].truth)
            assert run.means.size == gate.STEPS

    def test_negative_control_fails(self, runs):
        """Forecast means shifted by one series std (the streams are
        z-normalised by their history) must fail on every dataset."""
        variant, reference = runs
        shifted = {
            key: dataclasses.replace(run, means=run.means + 1.0)
            for key, run in variant.items()
        }
        found = gate.violations(shifted, reference)
        for dataset in gate.DATASETS:
            assert any(v.startswith(f"{dataset} mae:") for v in found), found

    def test_gate_holds_each_side_of_a_score(self, runs):
        _, reference = runs
        assert gate.violations(reference, reference) == []
        sharper = {
            key: dataclasses.replace(run, variances=run.variances / 4.0)
            for key, run in reference.items()
        }
        assert any("sharpness" in v for v in gate.violations(sharper, reference))
        busier = {
            key: dataclasses.replace(run, trainings=run.trainings + 2 * gate.STEPS)
            for key, run in reference.items()
        }
        assert any("awake_per_step" in v for v in gate.violations(busier, reference))
        costlier = {
            key: dataclasses.replace(
                run, cg_iterations=run.cg_iterations + run.trainings // 2
            )
            for key, run in reference.items()
        }
        assert any("CG iterations" in v for v in gate.violations(costlier, reference))

    def test_what_training_asks_for(self, runs):
        """Value evaluations per training fall from ≈ 33 to ≤ 14; gradient
        evaluations (the start plus one per accepted step) stay level."""
        variant, reference = runs
        assert pooled(reference, "values") > 30.0
        assert pooled(variant, "values") <= 14.0
        assert abs(pooled(variant, "gradients") - pooled(reference, "gradients")) <= 0.2
        assert pooled(variant, "cg") - pooled(reference, "cg") <= gate.CG_SLACK

    def test_table_has_both_sides(self, runs):
        variant, reference = runs
        lines = gate.table(variant, reference).splitlines()
        assert len(lines) == 2 + len(variant)
        assert lines[0].startswith("| dataset | seed | mae | mnlpd |")
        mae = variant["mall_like", 0].scores()["mae"]
        assert lines[2].startswith("| mall_like | 0 | ")
        assert lines[2].split(" | ")[2].endswith(f"→ {mae:.4f}")
