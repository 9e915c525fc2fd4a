"""The accuracy-equivalence gate (``tests/gp_equivalence.py``) on GP
training as loaded: every awake GP cell of a lane trained in lock step.

Two references, each installed by monkeypatching and collected over the
same seeded streams:

* the step memory (:class:`TestGate`): the lane with each Armijo line
  search starting at ``min(1, 2 × the last accepted step)``, against the
  lane with the optimiser from before it remembered a step — every
  search starts at 1.0 — kept below as :func:`restart_at_one`, the
  previous body of the CG loop with its objective calls turned into the
  coroutine's yields, patched in where the lane calls
  ``conjugate_gradient``;
* the lane itself (:class:`TestLaneGate`): against the per-cell trainer
  it replaced, kept verbatim in ``tests/gp_cell_oracle.py`` and
  installed through ``repro.core.smiler._make_predictor``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import gp_predictor, smiler
from repro.gp.optimize import OptimizeResult

from . import gp_cell_oracle
from . import gp_equivalence as gate


# ------------------------------------------------------------------ oracle
def _line_search(
    x: np.ndarray,
    value: float,
    grad: np.ndarray,
    direction: np.ndarray,
    initial_step: float,
    armijo: float = 1e-4,
    shrink: float = 0.5,
    max_backtracks: int = 25,
):
    """Armijo backtracking along ``direction``, as a sub-coroutine of
    :func:`restart_at_one`: candidates are valued only, the gradient is
    asked for at the one accepted.  Returns ``(new_x, new_value,
    new_grad, step)`` or None when no progress, and the values asked."""
    slope = float(grad @ direction)
    if slope >= 0:
        return None, 0
    step = initial_step
    for tries in range(1, max_backtracks + 1):
        candidate = x + step * direction
        cand_value = yield candidate
        if np.isfinite(cand_value) and cand_value <= value + armijo * step * slope:
            return (candidate, cand_value, (yield None), step), tries
        step *= shrink
    return None, max_backtracks


def restart_at_one(
    x0: np.ndarray,
    max_iters: int = 100,
    grad_tol: float = 1e-6,
    value_tol: float = 1e-10,
    initial_step: float = 1.0,
):
    """Polak-Ribière+ CG with restarts and Armijo backtracking, every line
    search starting at 1.0 (``initial_step`` is absorbed, not used)."""
    evaluations = gradient_evaluations = 1
    x = np.asarray(x0, dtype=np.float64).copy()
    value = yield x
    if not np.isfinite(value):
        raise ValueError(f"objective not finite at the start point: {value}")
    grad = yield None
    direction = -grad
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        if np.linalg.norm(grad) < grad_tol:
            converged = True
            break
        result, tries = yield from _line_search(
            x, value, grad, direction, 1.0
        )
        evaluations += tries
        if result is None:
            # Bad direction (stale conjugacy): restart with steepest descent.
            result, tries = yield from _line_search(
                x, value, grad, -grad, 1.0
            )
            evaluations += tries
            if result is None:
                break
        gradient_evaluations += 1
        new_x, new_value, new_grad, _ = result
        if value - new_value < value_tol * (abs(value) + value_tol):
            x, value, grad = new_x, new_value, new_grad
            converged = True
            break
        # Polak-Ribière+ update with automatic restart (beta clipped to
        # [0, 1e6]; runaway beta on ill-scaled problems degenerates the
        # direction and is caught by the steepest-descent restart above).
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            beta = float(new_grad @ (new_grad - grad) / (grad @ grad))
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
        evaluations=evaluations,
        gradient_evaluations=gradient_evaluations,
    )


@pytest.fixture(scope="module")
def lane():
    """Every dataset × seed through the lane as loaded."""
    return gate.collect()


@pytest.fixture(scope="module")
def runs(lane):
    """(variant, reference): the lane, and the lane restarting at 1.0."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp_predictor, "conjugate_gradient", restart_at_one)
        reference = gate.collect()
    return lane, reference


@pytest.fixture(scope="module")
def cells(lane):
    """(variant, reference): the lane, and the per-cell trainer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smiler, "_make_predictor", gp_cell_oracle.per_cell)
        reference = gate.collect()
    return lane, reference


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
        evaluations stay level.  The lane asks for one at the start and
        one per accepted step it goes on from, one per CG iteration; the
        reference's old line search also asks at the step where a run
        stops, so its gradients are compared by that rule, its
        iterations.  Without the patch reaching the lane the reference
        would read ≤ 14 values too."""
        variant, reference = runs
        assert pooled(reference, "values") > 30.0
        assert pooled(variant, "values") <= 14.0
        assert pooled(variant, "gradients") == pooled(variant, "cg")
        assert abs(pooled(variant, "gradients") - pooled(reference, "cg")) <= 0.2
        assert pooled(variant, "cg") - pooled(reference, "cg") <= gate.CG_SLACK

    def test_table_has_both_sides(self, runs):
        variant, reference = runs
        lines = gate.table(variant, reference).splitlines()
        assert len(lines) == 2 + len(variant)
        assert lines[0].startswith("| dataset | seed | mae | mnlpd |")
        mae = variant["mall_like", 0].scores()["mae"]
        assert lines[2].startswith("| mall_like | 0 | ")
        assert lines[2].split(" | ")[2].endswith(f"→ {mae:.4f}")


class TestLaneGate:
    def test_lane_passes_against_the_per_cell_trainer(self, cells):
        variant, reference = cells
        assert gate.violations(variant, reference) == []

    def test_it_is_the_per_cell_trainer(self, cells):
        """The reference really trained cell by cell: its GP predictors
        are the oracle's, and it is not the lane's numbers."""
        variant, reference = cells
        assert any(
            not np.array_equal(run.means, reference[key].means)
            for key, run in variant.items()
        )
        for key, run in variant.items():
            assert np.array_equal(run.truth, reference[key].truth)

    def test_negative_control_fails(self, cells):
        variant, reference = cells
        shifted = {
            key: dataclasses.replace(run, means=run.means + 1.0)
            for key, run in variant.items()
        }
        found = gate.violations(shifted, reference)
        for dataset in gate.DATASETS:
            assert any(v.startswith(f"{dataset} mae:") for v in found), found

    @pytest.mark.parametrize("key", ["values", "gradients", "cg"])
    def test_training_asks_no_more(self, cells, key):
        """Value and gradient evaluations and CG iterations per training
        do not rise beyond ``CG_SLACK``."""
        variant, reference = cells
        assert pooled(variant, key) - pooled(reference, key) <= gate.CG_SLACK
