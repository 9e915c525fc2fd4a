"""The GP lane: every awake GP cell of a forecast lane trained in lock
step, stacked by neighbour count across item lengths and sensors.

Members share stacked calls, not numbers: each is factorised alone and
every stacked operation works per member, so what a member predicts and
learns does not depend on what else is in its stack.  These tests pin
that to the bit (``float.hex``) — a lane against lanes of one, a lane
with a failing member against a lane without it, a stack mixing every
kind of member against each member alone — and pin that a GP sensor
snapshotted and restored mid-stream in a lane carries on as if it never
stopped.
"""

import copy
import json

import numpy as np
import pytest

from repro.backend import make_backend
from repro.core import SMiLerConfig, gp_predictor
from repro.core.gp_predictor import GaussianProcessPredictor
from repro.core.persistence import build_smiler, load_snapshot, save_smiler
from repro.core.smiler import SMiLer, absorb_many, predict_many
from repro.index import search_many

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(2, 4, 8), rho=2, omega=4, horizons=(1, 2),
    predictor="gp", initial_train_iters=8, online_train_iters=3,
)
HISTORY = 220
TICKS = 12


def streams(n_sensors, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_sensors):
        t = np.arange(HISTORY + TICKS)
        out.append(
            np.sin(t / (4.0 + i)) + 0.4 * np.sin(t / 1.7 + i)
            + (0.05 + 0.1 * i) * rng.standard_normal(t.size)
        )
    return out


def lane_of(histories, backend=None, config=CONFIG):
    backend = backend or make_backend("native")
    return [
        SMiLer(history[:HISTORY], config, backend=backend, sensor_id=f"s{i}")
        for i, history in enumerate(histories)
    ]


def step(lane, values):
    """What the ingest lane does with one reading per sensor."""
    absorb_many(lane, values)
    for sensor, answers in zip(lane, search_many([s.engine for s in lane])):
        sensor.install(answers)


def gp_cells(sensor):
    config = sensor.config
    return [
        sensor.ensemble(h).state(cell).predictor
        for h in config.horizons for cell in config.grid
    ]


def fingerprint(outcome, sensor):
    """Every float a prediction step leaves behind, as hex."""
    assert not isinstance(outcome, Exception), outcome
    floats = []
    for h in sorted(outcome):
        output = outcome[h]
        floats += [output.mean, output.variance]
        floats += output.components.mean.tolist()
        floats += output.components.variance.tolist()
        floats += output.weights.tolist()
    for predictor in gp_cells(sensor):
        if predictor._log_params is not None:
            floats += [float(p) for p in predictor._log_params]
        floats += [predictor._step]
    counts = [
        (p.train_calls, p.cg_iterations, p.objective_evaluations,
         p.gradient_evaluations)
        for p in gp_cells(sensor)
    ]
    return [float(x).hex() for x in floats], counts


# ------------------------------------------------------------- (i) lanes
def test_a_lane_equals_lanes_of_one():
    """Three GP sensors in one lane predict and train exactly as each
    does in a lane of its own, tick after tick."""
    histories = streams(3)
    lane = lane_of(histories)
    alone = [lane_of([history]) for history in histories]
    stacked_calls = []
    original = gp_predictor._fit_stack

    def recording(predictors, *args):
        stacked_calls.append(len(predictors))
        return original(predictors, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp_predictor, "_fit_stack", recording)
        for tick in range(TICKS):
            got = predict_many(lane, None)
            for sensor, single, outcome in zip(lane, alone, got):
                [want] = predict_many(single, None)
                assert fingerprint(outcome, sensor) == fingerprint(
                    want, single[0]
                ), (tick, sensor.sensor_id)
            values = [float(h[HISTORY + tick]) for h in histories]
            step(lane, values)
            for single, value in zip(alone, values):
                step(single, [value])
    # Stacks of one k held cells of both item lengths and all three sensors.
    assert max(stacked_calls) >= 2 * 3


# ------------------------------------------------- (ii) a failing member
def test_a_non_finite_neighbour_fails_its_sensor_alone():
    histories = streams(3, seed=4)
    lane, without = lane_of(histories), lane_of([histories[0], histories[2]])
    for tick in range(4):  # warm, remembered steps on every cell
        predict_many(lane, None)
        predict_many(without, None)
        values = [float(h[HISTORY + tick]) for h in histories]
        step(lane, values)
        step(without, [values[0], values[2]])
    victim = lane[1]
    victim._current_answers()
    index = victim.engine.window_index
    at = int(victim._answers[16].starts[0]) + 3  # inside a neighbour
    index._stack.series[index._row, at] = np.nan
    before = [p._log_params.copy() for p in gp_cells(victim)]
    pending = {h: len(victim.pending(h)) for h in CONFIG.horizons}

    got = predict_many(lane, None)
    want = predict_many(without, None)
    assert isinstance(got[1], ValueError) and "NaNs" in str(got[1])
    assert {h: len(victim.pending(h)) for h in CONFIG.horizons} == pending
    for sensor, twin, mine, theirs in zip(
        (lane[0], lane[2]), without, (got[0], got[2]), want
    ):
        assert fingerprint(mine, sensor) == fingerprint(theirs, twin)
    # The cells whose training failed kept their hyperparameters.
    d16 = [
        i for i, (h, cell) in enumerate(
            (h, cell) for h in CONFIG.horizons for cell in CONFIG.grid
        ) if cell[1] == 16 and cell[0] >= 2
    ]
    for i in d16:
        assert np.array_equal(gp_cells(victim)[i]._log_params, before[i])


# ---------------------------------------------- (iii) one mixed stack
def members(k=6, d=5, n=5, seed=9):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        neighbours = rng.normal(size=(k, d))
        targets = neighbours @ rng.normal(size=d) + 0.1 * rng.normal(size=k)
        out.append((rng.normal(size=d), neighbours, targets))
    return out


def test_one_stack_holds_every_kind_of_member(monkeypatch):
    """Cold (25 iterations), warm (5) and no-budget members in one
    ``predict_rows`` call, a k < 2 member in a call of its own: each
    predicts and learns exactly as it does alone."""
    data = members()
    cold = GaussianProcessPredictor(initial_train_iters=25)
    warm = GaussianProcessPredictor(online_train_iters=5)
    frozen = GaussianProcessPredictor(online_train_iters=0)
    tiny = GaussianProcessPredictor()
    for predictor, (query, neighbours, targets) in zip(
        (warm, frozen), data[1:3]
    ):
        predictor.predict(query, neighbours, targets * 0.9)
    predictors = [cold, warm, frozen, tiny]
    queries = [data[i][0] for i in range(4)]
    neighbours = [data[i][1] for i in range(3)] + [data[3][1][:1]]
    targets = [data[i][2] for i in range(3)] + [data[3][2][:1]]
    twins = copy.deepcopy(predictors)
    frozen_iterations = frozen.cg_iterations

    sizes = []
    original = gp_predictor._fit_stack
    monkeypatch.setattr(
        gp_predictor, "_fit_stack",
        lambda p, *a: sizes.append(len(p)) or original(p, *a),
    )
    outcomes = [
        GaussianProcessPredictor.predict_rows(
            predictors[rows], np.array(targets[rows]),
            lambda rows=rows: (queries[rows], neighbours[rows]),
        )
        for rows in (slice(0, 3), slice(3, 4))
    ]
    assert sizes == [3]  # one stack; the k = 1 member never reaches it
    assert all(errors == {} for _, _, errors in outcomes)
    mean, variance = (
        np.concatenate([outcome[field] for outcome in outcomes]) for field in (0, 1)
    )
    for predictor, twin, m, v, q, x, y in zip(
        predictors, twins, mean.tolist(), variance.tolist(), queries, neighbours,
        targets,
    ):
        want = twin.predict(q, x, y)
        assert (m.hex(), v.hex()) == (want.mean.hex(), want.variance.hex())
        assert (
            predictor.train_calls, predictor.cg_iterations,
            predictor.objective_evaluations, predictor.gradient_evaluations,
            predictor._step,
        ) == (
            twin.train_calls, twin.cg_iterations, twin.objective_evaluations,
            twin.gradient_evaluations, twin._step,
        )
        if twin._log_params is not None:
            assert predictor._log_params.tobytes() == twin._log_params.tobytes()
    assert 0 < cold.cg_iterations <= 25 and cold.train_calls == 1
    assert warm.train_calls == 2 and warm.cg_iterations <= 25 + 5
    assert frozen.train_calls == 2 and frozen.cg_iterations == frozen_iterations
    assert tiny.train_calls == 0 and tiny._log_params is None
    assert (mean[3], variance[3]) == (float(targets[3][0]), 1.0)


# ------------------------------------- (iv) snapshot, restore, continue
#: One horizon: a snapshot keeps no pending updates, and with h = 1 none
#: is pending between an ingest and the next forecast.
ONE_STEP = SMiLerConfig(
    elv=(8, 16), ekv=(2, 4, 8), rho=2, omega=4, predictor="gp",
    initial_train_iters=8, online_train_iters=3,
)


def run(histories, tmp_path=None, split=6):
    backend = make_backend("native")
    lane = lane_of(histories, backend, ONE_STEP)
    floats = []
    for tick in range(TICKS):
        if tick == split and tmp_path is not None:
            path = tmp_path / "s1.npz"
            save_smiler(lane[1], path)
            with np.load(path) as archive:
                meta = json.loads(archive["meta_json"].tobytes().decode())
                assert meta["format_version"] == 2
                assert {"step_h1_k8_d16", "gp_h1_k8_d16"} <= set(archive.files)
            steps = [p._step for p in gp_cells(lane[1])]
            lane[1] = build_smiler(load_snapshot(path), backend)
            assert [p._step for p in gp_cells(lane[1])] == steps
            assert min(steps) < 1.0  # something worth remembering
        for sensor, outcome in zip(lane, predict_many(lane, None)):
            # Floats only: a restored predictor's counters start at 0.
            floats.append(fingerprint(outcome, sensor)[0])
        step(lane, [float(h[HISTORY + tick]) for h in histories])
    return floats


def test_snapshot_restore_continue_in_a_lane_equals_never_stopping(tmp_path):
    histories = streams(3, seed=5)
    assert run(histories, tmp_path) == run(histories)
