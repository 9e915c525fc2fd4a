"""Differential identity battery for the ensemble lane.

``update_many`` and ``mix_many`` replaced the per-sensor bodies of
``AdaptiveEnsemble.update`` (with ``_normalise_awake``, ``_sleep_phase``
and ``_recovery_phase``) and ``AdaptiveEnsemble.mix``, and
``tune_many`` the per-sensor ``SMiLer.tune``.  The replaced bodies are
kept here verbatim as the oracle — except that every ``sum()`` is the
explicit left fold :func:`fold`, which is what ``sum()`` computed on
CPython 3.11 and what the lane computes on every version.  The oracle
mixes and scores ``{cell: GaussianPrediction}`` dicts; the lane the same
predictions as ``Components`` rows in cell order (:func:`stacked`).
Every state field, mixture and weight the lane produces must be
``float.hex()``-equal to the oracle's, whatever shares the lane.
"""

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend import make_backend
from repro.backend.base import kernel_domain
from repro.core import SMiLerConfig
from repro.core.ar import AggregationPredictor
from repro.core.ensemble import (
    AdaptiveEnsemble,
    Components,
    EnsembleOutput,
    EnsembleStack,
    mix_many,
    update_many,
)
from repro.core.predictor import GaussianPrediction
from repro.core.smiler import SMiLer, absorb_many, predict_many
from repro.index import search_many
from repro.service import PredictionService, SnapshotCorruptionError
from repro.timeseries.series import ZNormStats
from repro.tolerances import MIX_SPREAD_FLOOR, RECOVERY_FLOOR

from .test_forecast_lane import fold, oracle_cell_inputs, oracle_forecast_fields

STEPS = 200


# ------------------------------------------------------------------ oracle
@dataclass
class OracleCellState:
    """``CellState`` as it was: the scalars held per cell."""

    weight: float
    asleep: bool = False
    sleep_span: int = 1
    sleep_remaining: int = 0
    just_recovered: bool = False


class OracleEnsemble:
    """``AdaptiveEnsemble``'s per-sensor auto-tuning and mixing as they
    were (predictors left out: the oracle is handed its components)."""

    def __init__(self, cells, self_adaptive=True, sleep_enabled=True):
        uniform = 1.0 / len(cells)
        self._states = {cell: OracleCellState(weight=uniform) for cell in cells}
        self.self_adaptive = self_adaptive
        self.sleep_enabled = sleep_enabled and self_adaptive and len(cells) > 1
        self.eta = 1.0 / (2.0 * len(cells))
        self.updates = 0

    def awake_cells(self):
        return [cell for cell, st in self._states.items() if not st.asleep]

    def weights(self):
        return {
            cell: st.weight for cell, st in self._states.items() if not st.asleep
        }

    def mix(self, components):
        weights = self.weights()
        if components.keys() != weights.keys():
            raise KeyError(
                f"components {list(components)} are not the awake cells "
                f"{list(weights)}"
            )
        total = fold(weights.values())
        norm = {cell: w / total for cell, w in weights.items()}
        mean = fold(norm[c] * components[c].mean for c in norm)
        second_moment = fold(
            norm[c] * (components[c].variance + components[c].mean ** 2)
            for c in norm
        )
        variance = max(second_moment - mean**2, MIX_SPREAD_FLOOR)
        return EnsembleOutput(
            mean=mean, variance=variance, components=components, weights=norm
        )

    def update(self, true_value, components):
        self.updates += 1
        if not self.self_adaptive:
            return
        awake = [cell for cell in self.awake_cells() if cell in components]
        if awake:
            log_dens = np.array(
                [components[c].log_density(true_value) for c in awake]
            )
            shifted = np.exp(log_dens - log_dens.max())
            norm_lik = shifted / shifted.sum()
            for cell, lik in zip(awake, norm_lik):
                self._states[cell].weight += float(lik)
            self._normalise_awake()

        if self.sleep_enabled:
            just_slept = self._sleep_phase()
            self._recovery_phase(just_slept)

    def _normalise_awake(self):
        awake = self.awake_cells()
        total = fold(self._states[c].weight for c in awake)
        if total <= 0:
            uniform = 1.0 / len(awake)
            for cell in awake:
                self._states[cell].weight = uniform
            return
        for cell in awake:
            self._states[cell].weight /= total

    def _sleep_phase(self):
        going_to_sleep = []
        for cell in self.awake_cells():
            st = self._states[cell]
            if st.weight < self.eta and len(self.awake_cells()) > 1:
                going_to_sleep.append(cell)
            else:
                st.sleep_span = max(1, st.sleep_span // 2)
                st.just_recovered = False
        for cell in going_to_sleep:
            st = self._states[cell]
            if st.just_recovered:
                st.sleep_span *= 2
            st.asleep = True
            st.sleep_remaining = st.sleep_span
            st.just_recovered = False
            st.weight = 0.0
        if going_to_sleep:
            self._normalise_awake()
        return set(going_to_sleep)

    def _recovery_phase(self, just_slept):
        recovered = []
        for cell, st in self._states.items():
            if not st.asleep or cell in just_slept:
                continue
            st.sleep_remaining -= 1
            if st.sleep_remaining <= 0:
                recovered.append(cell)
        if not recovered:
            return
        kappa = len(recovered)
        raw = self.eta / max(1.0 - kappa * self.eta, RECOVERY_FLOOR)
        for cell in recovered:
            st = self._states[cell]
            st.asleep = False
            st.weight = raw
            st.just_recovered = True
        self._normalise_awake()


def oracle_tune(sensor, value):
    """``SMiLer.tune`` as it was."""
    arrived = sensor._now
    for h, queue in sensor._pending.items():
        while queue and queue[0].due_index < arrived:
            queue.popleft()  # stale (prediction was never scored)
        if queue and queue[0].due_index == arrived:
            update = queue.popleft()
            sensor._ensembles[h].update(value, update.components)


@dataclass
class _PendingUpdate:
    """``smiler._PendingUpdate`` as it was: one prediction awaiting its
    true value."""

    due_index: int
    components: Components


class OracleTwin:
    """A sensor as the per-sensor code served it: a standalone ``SMiLer``
    for the search, the oracle's ensembles and pending queues."""

    def __init__(self, history, config, backend_name, sensor_id):
        self.smiler = SMiLer(
            history, config, backend=make_backend(backend_name),
            sensor_id=f"twin-{sensor_id}",
        )
        self._ensembles = {
            h: OracleEnsemble(
                config.grid, config.self_adaptive, config.sleep_enabled
            )
            for h in config.horizons
        }
        self._pending = {h: deque() for h in config.horizons}

    @property
    def _now(self):
        return self.smiler.now

    def predict(self, h):
        ensemble = self._ensembles[h]
        awake = ensemble.awake_cells()
        inputs = oracle_cell_inputs(
            self.smiler, self.smiler._current_answers(), h, awake
        )
        output = ensemble.mix({
            cell: AggregationPredictor().predict(*inputs[cell]) for cell in awake
        })
        # ``SMiLer._remember`` as it is.
        due = self._now - 1 + h
        queue = self._pending[h]
        if queue and queue[-1].due_index == due:
            queue[-1].components = output.components
        else:
            queue.append(_PendingUpdate(due, output.components))
        return output

    def observe(self, value):
        oracle_tune(self, value)
        self.smiler.observe(value)


# ------------------------------------------------------------- comparisons
FIELDS = ("asleep", "sleep_span", "sleep_remaining", "just_recovered")


def assert_same_state(ensemble, oracle, who):
    assert ensemble.updates == oracle.updates, who
    assert ensemble.awake_cells() == oracle.awake_cells(), who
    for cell, want in oracle._states.items():
        got = ensemble.state(cell)
        assert type(got.weight) is float, who
        assert got.weight.hex() == want.weight.hex(), (who, cell)
        assert type(got.asleep) is bool and type(got.sleep_span) is int, who
        assert [getattr(got, name) for name in FIELDS] == [
            getattr(want, name) for name in FIELDS
        ], (who, cell)


def stacked(grid, rows):
    """``{cell: GaussianPrediction}`` dicts as the lane's ``[R, C]``
    components: cell order, 0.0 where a cell did not predict."""
    def field(name):
        return np.array([
            [getattr(row[cell], name) if cell in row else 0.0 for cell in grid]
            for row in rows
        ], dtype=np.float64)

    present = np.array([[cell in row for cell in grid] for row in rows])
    return Components(present, field("mean"), field("variance"))


def row_of(grid, predictions):
    """One dict as a ``[C]`` row, as a pending update holds it."""
    return Components(*(field[0] for field in stacked(grid, [predictions])))


def assert_same_output(got, want, grid, who):
    """The lane's mixture against the oracle's; its rows against the
    oracle's dicts laid out in grid order."""
    assert got.mean.hex() == float(want.mean).hex(), who
    assert got.variance.hex() == want.variance.hex(), who
    for got_row, want_row in zip(got.components, stacked(grid, [want.components])):
        assert [float(v).hex() for v in got_row.tolist()] == [
            float(v).hex() for v in want_row[0].tolist()
        ], who
    assert [w.hex() for w in got.weights.tolist()] == [
        float(want.weights.get(cell, 0.0)).hex() for cell in grid
    ], who


# --------------------------------------------------------- synthetic lanes
class Stream:
    """Seeded predictions and truths for ``size`` sensors over a grid of
    ``n_cells``: each cell has a bias (some large enough to sleep the cell
    again and again) and a noise level of its own."""

    def __init__(self, seed, size, n_cells, bad_share=0.4):
        self.rng = np.random.default_rng(seed)
        self.bias = self.rng.normal(0.0, 0.3, (size, n_cells))
        bad = self.rng.random((size, n_cells)) < bad_share
        self.bias[bad] += self.rng.choice([-3.0, 3.0], bad.sum())
        self.log_var = self.rng.uniform(-2.5, 0.5, (size, n_cells))

    def step(self, size):
        return self.rng.normal(0.0, 1.0, size)


def predictions(stream, member, grid, cells, truth):
    """``{cell: N(mean, variance)}`` for ``cells`` of ``grid``, in grid
    order, scattered around ``truth`` by each cell's bias and noise."""
    out = {}
    for cell in grid:
        if cell in cells:
            j = grid.index(cell)
            mean = truth + stream.bias[member, j] + 0.3 * stream.rng.normal()
            variance = math.exp(stream.log_var[member, j] + 0.2 * stream.rng.normal())
            out[cell] = GaussianPrediction(float(mean), float(variance))
    return out


def grid_of(n_cells):
    return [(k, d) for k in (4, 8, 16) for d in (8, 16, 32)][:n_cells]


def run_synthetic_lane(seed, flags, n_cells, steps=STEPS, delay=2):
    """``flags[i] = (self_adaptive, sleep_enabled)`` per member.  Every
    tick each member mixes its awake cells (the lane: one ``mix_many``;
    alone: a ``mix_many`` of one; the oracle); ``delay`` ticks later
    the mixture's components are scored — by then cells may have fallen
    asleep or woken — except on ticks a member skips.  Returns the
    event counts the oracle went through."""
    grid = grid_of(n_cells)
    size = len(flags)
    lane = [AdaptiveEnsemble(grid, lambda cell: None, a, s) for a, s in flags]
    alone = [AdaptiveEnsemble(grid, lambda cell: None, a, s) for a, s in flags]
    oracles = [OracleEnsemble(grid, a, s) for a, s in flags]
    stream = Stream(seed, size, n_cells)
    pending = deque()
    events = {"doublings": 0, "multi_recoveries": 0, "asleep_max": 0}
    for tick in range(steps):
        truths = stream.step(size)
        comps = [
            predictions(stream, i, grid, oracle.awake_cells(), truths[i])
            for i, oracle in enumerate(oracles)
        ]
        wanted = [oracle.mix(c) for oracle, c in zip(oracles, comps)]
        got = mix_many(lane, stacked(grid, comps))
        for i in range(size):
            assert_same_output(got[i], wanted[i], grid, (tick, i, "lane"))
            [mine] = mix_many([alone[i]], stacked(grid, comps[i : i + 1]))
            assert_same_output(mine, wanted[i], grid, (tick, i, "alone"))
        pending.append((truths, comps))
        if len(pending) <= delay:
            continue
        truths, comps = pending.popleft()
        skipped = stream.rng.random(size) < 0.1
        scored = [None if skip else c for skip, c in zip(skipped, comps)]
        before = [
            {cell: (st.asleep, st.sleep_span, st.just_recovered)
             for cell, st in oracle._states.items()}
            for oracle in oracles
        ]
        truths = truths.tolist()
        update_many(lane, truths, [
            None if found is None else row_of(grid, found) for found in scored
        ])
        for i in range(size):
            if scored[i] is not None:
                alone[i].update(truths[i], row_of(grid, scored[i]))
                oracles[i].update(truths[i], scored[i])
            assert_same_state(lane[i], oracles[i], (tick, i, "lane"))
            assert_same_state(alone[i], oracles[i], (tick, i, "alone"))
            woke = 0
            for cell, st in oracles[i]._states.items():
                was_asleep, span, recovered = before[i][cell]
                woke += was_asleep and not st.asleep
                if recovered and st.asleep and st.sleep_span == 2 * span:
                    events["doublings"] += 1
            events["multi_recoveries"] += woke > 1
        events["asleep_max"] = max(
            events["asleep_max"],
            sum(st.asleep for o in oracles for st in o._states.values()),
        )
    return events


# ------------------------------------------------------------------- tests
class TestNumpyFacts:
    """The NumPy facts the lane's bits rest on; a NumPy that breaks one
    fails here first."""

    def test_float_power_is_python_squaring(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200_000) * 10.0 ** rng.integers(-8, 8, 200_000)
        squared = np.float_power(x, 2.0)
        assert [v.hex() for v in squared.tolist()] == [
            (v ** 2).hex() for v in x.tolist()
        ]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_a_last_axis_sum_below_eight_terms_is_a_left_fold(self, n):
        rng = np.random.default_rng(n)
        terms = rng.standard_normal((5_000, n)) * 10.0 ** rng.integers(
            -6, 6, (5_000, n)
        )
        sums = terms.sum(axis=1)
        assert [s.hex() for s in sums.tolist()] == [
            float(fold(row)).hex() for row in terms.tolist()
        ]

    @pytest.mark.parametrize("n", [1, 4, 9, 16])
    def test_an_accumulation_is_a_left_fold_at_any_width(self, n):
        """What ``_fold`` computes the lane's ``sum()``s with."""
        rng = np.random.default_rng(100 + n)
        terms = rng.standard_normal((2_000, n)) * 10.0 ** rng.integers(
            -6, 6, (2_000, n)
        )
        folded = np.add.accumulate(terms, axis=1)[:, -1] + 0.0
        assert [s.hex() for s in folded.tolist()] == [
            float(fold(row)).hex() for row in terms.tolist()
        ]


@settings(max_examples=20, deadline=None)
@example(
    seed=11, n_cells=4,
    flags=[(True, True)] * 40 + [(False, True)] * 4 + [(True, False)] * 4,
)
@example(seed=12, n_cells=9, flags=[(True, True)] * 48)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cells=st.sampled_from([1, 4, 9]),
    flags=st.lists(
        st.sampled_from([(True, True)] * 6 + [(True, False), (False, True)]),
        min_size=1, max_size=48,
    ),
)
def test_a_lane_equals_its_oracle_and_lanes_of_one(seed, n_cells, flags):
    """Lanes of 1-48 sensors, 1, 4 or 9 cells, some members not
    self-adaptive or not sleeping, 200 ticks: the stacked update and mix
    of every member are the oracle's bits, and so are a lane of one's."""
    run_synthetic_lane(seed, flags, n_cells)


def test_resleep_doubling_and_simultaneous_recoveries():
    """Biased cells sleep, wake together (kappa > 1) and fall straight
    back asleep (span doubling) — on the 3 x 3 grid, where eight or more
    awake cells make NumPy's likelihood sum a pairwise tree."""
    events = run_synthetic_lane(7, [(True, True)] * 16, 9)
    assert events["doublings"] > 0
    assert events["multi_recoveries"] > 0
    assert events["asleep_max"] > 0


@pytest.mark.parametrize("flags", [(False, True), (True, False), (False, False)])
def test_non_adaptive_and_sleepless_lanes(flags):
    run_synthetic_lane(3, [flags] * 6, 4, steps=60)


def test_a_stack_follows_its_members():
    """``EnsembleStack.of`` keeps a group that has not changed, re-packs
    one that has, and refuses what cannot share a stack."""
    grid = grid_of(4)
    group = [AdaptiveEnsemble(grid, lambda cell: None) for _ in range(3)]
    stack = EnsembleStack.of(group)
    assert EnsembleStack.of(group) is stack and stack.size == 3
    group[1].state(grid[2]).weight = 0.5
    smaller = EnsembleStack.of(group[1:])
    assert smaller is not stack and smaller.size == 2
    assert group[1].state(grid[2]).weight == 0.5
    with pytest.raises(ValueError, match="twice"):
        EnsembleStack.of([group[0], group[0]])
    with pytest.raises(ValueError, match="share their cells"):
        EnsembleStack.of([group[0], AdaptiveEnsemble(grid[:2], lambda c: None)])


# ------------------------------------------------------------ real sensors
CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1, 3), predictor="ar",
)
TICKS = 40


def streams(n, length, seed=4):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    return [
        np.sin(t / (4.0 + i)) + 0.4 * np.sin(t / 1.7 + i)
        + (0.05 + 0.1 * (i % 3)) * rng.standard_normal(length)
        for i in range(n)
    ]


def test_smiler_lanes_equal_their_oracle_twins():
    """``predict_many`` / ``absorb_many`` over a lane of real AR sensors,
    stepping once as one group and sometimes as two: weights, sleepers,
    mixtures and pending queues are the oracle twins'."""
    backend = make_backend("native")
    lane, twins, futures = [], [], []
    for i, series in enumerate(streams(10, 270 + TICKS)):
        history = series[: 240 + 3 * i]
        lane.append(SMiLer(history, CONFIG, backend=backend, sensor_id=f"s{i}"))
        twins.append(OracleTwin(history, CONFIG, "native", i))
        futures.append(series[history.size :])
    slept = False
    for tick in range(TICKS):
        got = predict_many(lane, None)
        for sensor, twin, outputs in zip(lane, twins, got):
            for h in CONFIG.horizons:
                assert_same_output(
                    outputs[h], twin.predict(h), CONFIG.grid, (tick, sensor.sensor_id)
                )
        values = [float(future[tick]) for future in futures]
        if tick % 5 == 2:
            absorb_many(lane[:4], values[:4])
            absorb_many(lane[4:], values[4:])
        else:
            absorb_many(lane, values)
        for sensor, answers in zip(lane, search_many([s.engine for s in lane])):
            sensor.install(answers)
        for sensor, twin, value in zip(lane, twins, values):
            twin.observe(value)
            for h in CONFIG.horizons:
                assert_same_state(sensor.ensemble(h), twin._ensembles[h], tick)
                assert [due for due, _ in sensor.pending(h)] == [
                    u.due_index for u in twin._pending[h]
                ]
                slept |= len(sensor.ensemble(h).awake_cells()) < len(CONFIG.grid)
    assert slept, "no cell ever slept"


def _normalised(stats, value):
    return float(stats.apply(np.array([value]))[0])


def test_register_deregister_evacuate_repack_and_keep_the_bits(tmp_path):
    """A service lane whose members join, leave and move shard between
    rounds — each change re-packs the ensemble stacks — serves and tunes
    every sensor as its oracle twin does."""
    raw = [200.0 + 30.0 * s for s in streams(9, 300 + TICKS, seed=6)]
    service = PredictionService(
        CONFIG, backends=[make_backend("native"), make_backend("native")],
        min_history=100,
    )
    twins, stats, futures = {}, {}, {}

    def register(i):
        sid = f"s{i}"
        history = raw[i][: 240 + 5 * i]
        service.register(sid, history)
        stats[sid] = ZNormStats.of(history)
        twins[sid] = OracleTwin(stats[sid].apply(history), CONFIG, "native", sid)
        futures[sid] = raw[i][history.size :]

    def assert_one_stack_per_lane():
        """Each lane's sensors tuned horizon 1 as one stack holding
        exactly their ensembles: re-packed on every membership change.
        Both native shards are one kernel domain, so on the inline engine
        the lane is the whole fleet, elsewhere a shard.  Returns how many
        shards host the fleet."""
        fused = service.engine.name == "inline"
        lanes = {}
        for sid in twins:
            index = service._placements[sid].backend_index
            lane = kernel_domain(service.backends[index]) if fused else index
            lanes.setdefault(lane, []).append(service.sensor(sid).ensemble(1))
        assert len(lanes) == 1 or not fused
        for members in lanes.values():
            assert len({id(ensemble._stack) for ensemble in members}) == 1
            assert members[0]._stack.size == len(members)
        return sum(1 for count in service.sensors_per_backend() if count)

    try:
        for i in range(7):
            register(i)
        lanes = []
        for tick in range(TICKS):
            horizon = (1, 3)[tick % 2]
            batch = service.forecast_all(horizon=horizon)
            assert not batch.errors
            for sid, twin in twins.items():
                output = twin.predict(horizon)
                want = oracle_forecast_fields(
                    stats[sid], output.mean, output.variance, 0.95
                )[0]
                assert batch[sid].mean.hex() == float(want).hex(), (tick, sid)
            readings = {sid: float(futures[sid][tick]) for sid in twins}
            service.ingest_many(readings)
            for sid, twin in twins.items():
                twin.observe(_normalised(stats[sid], readings[sid]))
                for h in CONFIG.horizons:
                    assert_same_state(
                        service.sensor(sid).ensemble(h), twin._ensembles[h],
                        (tick, sid, h),
                    )
            if horizon == 1:  # scored at this ingest
                lanes.append(assert_one_stack_per_lane())
            if tick == 10:
                register(7)
            elif tick == 18:
                service.deregister("s2")
                del twins["s2"]
            elif tick == 26:
                assert service.evacuate(0)
        assert lanes[0] == 2 and lanes[-1] == 1
    finally:
        service.close()


def test_snapshot_restore_continue_equals_never_stopping(tmp_path):
    """Ensemble state through an archive: a lane restored mid-stream
    serves and tunes the way the lane that never stopped does."""
    config = SMiLerConfig(
        elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1,), predictor="ar",
    )
    raw = [100.0 + 20.0 * s for s in streams(6, 300 + 2 * TICKS, seed=9)]

    def build():
        service = PredictionService(
            config, backends=make_backend("native"), min_history=100
        )
        for i, series in enumerate(raw):
            service.register(f"s{i}", series[:300])
        return service

    def serve(service, ticks):
        outputs = []
        for tick in ticks:
            batch = service.forecast_all()
            outputs.append({sid: batch[sid].mean.hex() for sid in sorted(batch)})
            service.ingest_many({
                f"s{i}": float(series[300 + tick]) for i, series in enumerate(raw)
            })
        return outputs

    def states(service):
        return {
            sid: [
                (cell, ensemble.state(cell).weight.hex())
                + tuple(getattr(ensemble.state(cell), f) for f in FIELDS)
                for cell in ensemble.cells
            ]
            for sid in ("s0", "s1", "s2", "s3", "s4", "s5")
            for ensemble in [service.sensor(sid).ensemble(1)]
        }

    steady = build()
    stopped = build()
    try:
        # Serve until some cell sleeps, so its countdown is archived too.
        for tick in range(TICKS):
            assert serve(steady, [tick]) == serve(stopped, [tick])
            if any(
                state[2] for sensor in states(steady).values() for state in sensor
            ):
                break
        else:
            pytest.fail("no cell fell asleep")
        stopped.snapshot(tmp_path / "snap")
    finally:
        stopped.close()
    restored = PredictionService(
        config, backends=make_backend("native"), min_history=100
    )
    try:
        restored.restore(tmp_path / "snap")
        assert states(restored) == states(steady)
        after = range(tick + 1, tick + 1 + TICKS)
        assert serve(restored, after) == serve(steady, after)
        assert states(restored) == states(steady)
    finally:
        restored.close()
        steady.close()


# ---------------------------------------------------------- restore guard
def _rewrite_state(archive, edit):
    with np.load(archive) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays["meta_json"].tobytes()).decode("utf-8"))
    edit(meta["ensemble_state"])
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), np.uint8)
    np.savez_compressed(archive, **arrays)


@pytest.mark.parametrize("case, key", [
    ("all_asleep", "h1"),
    ("nan_weight", "h1_k4_d8"),
    ("negative_weight", "h3_k8_d16"),
    ("zero_span", "h1_k8_d8"),
    ("negative_remaining", "h3_k4_d16"),
])
def test_restore_refuses_ensemble_state_no_run_produces(tmp_path, case, key):
    service = PredictionService(
        CONFIG, backends=make_backend("native"), min_history=100
    )
    try:
        service.register("s0", 50.0 + 5.0 * streams(1, 300)[0])
        service.forecast_all()
        service.ingest_many({"s0": 50.0})
        service.snapshot(tmp_path)
    finally:
        service.close()

    def edit(states):
        if case == "all_asleep":
            for name, state in states.items():
                if name.startswith("h1_"):
                    state.update(asleep=True, weight=0.0, sleep_remaining=2)
        elif case == "nan_weight":
            states[key]["weight"] = float("nan")
        elif case == "negative_weight":
            states[key]["weight"] = -0.25
        elif case == "zero_span":
            states[key]["sleep_span"] = 0
        else:
            states[key]["sleep_remaining"] = -1

    _rewrite_state(tmp_path / "s0.npz", edit)
    fresh = PredictionService(
        CONFIG, backends=make_backend("native"), min_history=100
    )
    try:
        with pytest.raises(SnapshotCorruptionError, match=key) as raised:
            fresh.restore(tmp_path)
        assert isinstance(raised.value.__cause__, ValueError)
        assert sum(fresh.sensors_per_backend()) == 0
    finally:
        fresh.close()
