"""Differential identity battery for the forecast lane.

``predict_many`` replaced the per-sensor body of ``SMiLer.predict`` (and
``_cell_inputs``), ``AggregationPredictor.predict_rows`` the one-row
reduction, ``PredictionService._forecast_lane`` the per-sensor
``_forecast_op``.  The deleted bodies are kept here verbatim as the
oracle — twins of the lane's sensors, fed the same readings, predicted
one sensor and one cell at a time — and every float the lane produces
must be ``float.hex()``-equal to theirs, whatever shares the stack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erfinv

from repro.backend import make_backend
from repro.core import SMiLerConfig
from repro.core.ar import AggregationPredictor
from repro.core.ensemble import EnsembleOutput
from repro.core.predictor import GaussianPrediction, SemiLazyPredictor
from repro.core.smiler import SMiLer, absorb_many, predict_many
from repro.index import search_many
from repro.service import PredictionService
from repro.timeseries.series import ZNormStats

BACKENDS = ["simulated", "native"]

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(1, 4, 8), rho=2, omega=4, horizons=(1, 3),
    predictor="ar",
)
TICKS = 60


# ------------------------------------------------------------------ oracle
class OracleAggregationPredictor(SemiLazyPredictor):
    """``AggregationPredictor.predict`` as it was: one row, reduced alone."""

    variance_floor = 1e-8

    def predict(self, query, neighbours, targets):
        _, _, targets = self._validate(query, neighbours, targets)
        mean = float(targets.mean())
        variance = float(np.mean((targets - mean) ** 2))
        return GaussianPrediction(mean, max(variance, self.variance_floor))


def oracle_cell_inputs(smiler, answers, horizon, cells):
    """``SMiLer._cell_inputs`` as it was."""
    series = smiler.engine.series
    inputs = {}
    per_length = {
        d: (smiler.engine.item_query(d), sliding_window_view(series, d))
        for d in {d for _, d in cells}
    }
    for cell in cells:
        k, d = cell
        starts, _ = answers[d].top(k)
        query, segments = per_length[d]
        targets = series[starts + d - 1 + horizon]
        inputs[cell] = (query, segments[starts], targets)
    return inputs


def oracle_ensemble_predict(ensemble, inputs):
    """``AdaptiveEnsemble.predict`` as it was (cells and mixing in one)."""
    awake = ensemble.awake_cells()
    components = {}
    for cell in awake:
        query, neighbours, targets = inputs[cell]
        components[cell] = ensemble.state(cell).predictor.predict(
            query, neighbours, targets
        )
    weights = ensemble.weights()
    total = sum(weights.values())
    norm = {cell: w / total for cell, w in weights.items()}
    mean = sum(norm[c] * components[c].mean for c in awake)
    second_moment = sum(
        norm[c] * (components[c].variance + components[c].mean ** 2)
        for c in awake
    )
    variance = max(second_moment - mean**2, 1e-10)
    return EnsembleOutput(
        mean=mean, variance=variance, components=components, weights=norm
    )


def oracle_predict(smiler, horizon=None):
    """The per-sensor body of ``SMiLer.predict`` as it was."""
    horizons = smiler.config.horizons if horizon is None else (horizon,)
    answers = smiler._current_answers()
    outputs = {}
    for h in horizons:
        ensemble = smiler.ensemble(h)
        inputs = oracle_cell_inputs(smiler, answers, h, ensemble.awake_cells())
        output = oracle_ensemble_predict(ensemble, inputs)
        outputs[h] = output
        smiler._remember(h, output)
    return outputs


def oracle_forecast_fields(stats, z_mean, z_variance, level):
    """The de-normalisation of ``_forecast_op`` as it was."""
    mean = float(stats.invert(np.array([z_mean]))[0])
    raw_variance = float(stats.invert_variance(np.array([z_variance]))[0])
    std = float(np.sqrt(max(raw_variance, 0.0)))
    z = float(np.sqrt(2.0) * erfinv(level))
    return mean, std, mean - z * std, mean + z * std


def as_oracle(smiler):
    """Swap an AR sensor's predictors for the one-row oracle."""
    for h in smiler.config.horizons:
        ensemble = smiler.ensemble(h)
        for cell in ensemble.cells:
            if isinstance(ensemble.state(cell).predictor, AggregationPredictor):
                ensemble.state(cell).predictor = OracleAggregationPredictor()
    return smiler


# ----------------------------------------------------------------- fixtures
def histories(n_sensors, seed=11):
    """Histories of differing length and character; the second is so
    short that its first answers for d=16 hold fewer than k_max starts,
    the third is constant (every variance sits on the floor)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_sensors):
        n = 180 + 17 * i
        t = np.arange(n + TICKS + 4)
        wave = np.sin(t / (5.0 + i)) + 0.3 * np.sin(t / 2.3 + i)
        noise = (0.02 + 0.15 * (i % 4)) * rng.standard_normal(t.size)
        out.append(wave + noise + (0.01 * i) * np.cumsum(rng.standard_normal(t.size)))
    if n_sensors > 2:
        out[1] = out[1][: 24 + TICKS + 4]
        out[2] = np.full_like(out[2], 0.25)
    return out


def split(series):
    return series[: series.size - TICKS - 4], series[series.size - TICKS - 4 :]


def make_twin(history, backend_name, sensor_id):
    """A lane sensor's oracle twin, on a backend of its own."""
    return as_oracle(SMiLer(
        history, CONFIG, backend=make_backend(backend_name),
        sensor_id=f"twin-{sensor_id}",
    ))


def hexes(prediction):
    return prediction.mean.hex(), prediction.variance.hex()


def assert_same_outputs(got, want, who):
    assert not isinstance(got, Exception), (who, got)
    assert sorted(got) == sorted(want), who
    for h in want:
        assert list(got[h].components) == list(want[h].components), (who, h)
        for cell in want[h].components:
            assert hexes(got[h].components[cell]) == hexes(
                want[h].components[cell]
            ), (who, h, cell)
        assert hexes(got[h]) == hexes(want[h]), (who, h)
        assert list(got[h].weights) == list(want[h].weights), (who, h)
        assert [w.hex() for w in got[h].weights.values()] == [
            w.hex() for w in want[h].weights.values()
        ], (who, h)


def assert_same_state(sensor, twin):
    """Everything a prediction leaves behind: the pending-update queues
    and — after the next reading scores them — weights and sleepers."""
    for h in twin.config.horizons:
        got, want = sensor._pending[h], twin._pending[h]
        assert [u.due_index for u in got] == [u.due_index for u in want]
        for mine, theirs in zip(got, want):
            assert list(mine.components) == list(theirs.components)
            for cell in theirs.components:
                assert hexes(mine.components[cell]) == hexes(
                    theirs.components[cell]
                )
        mine, theirs = sensor.ensemble(h), twin.ensemble(h)
        assert mine.awake_cells() == theirs.awake_cells()
        for cell in theirs.cells:
            a, b = mine.state(cell), theirs.state(cell)
            assert a.weight.hex() == b.weight.hex()
            assert (a.asleep, a.sleep_span, a.sleep_remaining) == (
                b.asleep, b.sleep_span, b.sleep_remaining
            )


def truncate_answer(smiler, d, keep):
    """What a faulty kernel leaves: NaN distances dropped, an answer
    shorter than ``k_max``."""
    answer = smiler._answers[d]
    answer.starts = answer.starts[:keep]
    answer.distances = answer.distances[:keep]


# ------------------------------------------------------------- core lane
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_sixty_tick_lane_equals_its_oracle_twins(backend_name):
    backend = make_backend(backend_name)
    series = histories(9)
    lane, twins, futures = [], [], []
    for i, full in enumerate(series[:8]):
        history, future = split(full)
        lane.append(SMiLer(history, CONFIG, backend=backend, sensor_id=f"s{i}"))
        twins.append(make_twin(history, backend_name, i))
        futures.append(future)
    late_history, late_future = split(series[8])

    awake_differs = ragged = False
    for tick in range(TICKS):
        if tick == 20:
            # A freshly built sensor joins: never searched, a cold seed,
            # an index living in a stack of its own.
            joined = np.concatenate([late_history, late_future[:tick]])
            lane.append(SMiLer(joined, CONFIG, backend=backend, sensor_id="s8"))
            twins.append(make_twin(joined, backend_name, 8))
            futures.append(late_future)
        if tick % 7 == 3:
            # A stale member joins fresh ones (two on some ticks: they
            # re-search as one group, the twins each alone).
            for at in {tick % len(lane), (3 * tick) % len(lane)}:
                lane[at]._answers = twins[at]._answers = None
        if tick % 9 == 4:
            at = (tick // 9) % len(lane)
            for smiler in (lane[at], twins[at]):
                smiler._current_answers()
                truncate_answer(smiler, 16, 3)
                truncate_answer(smiler, 8, 5)

        sizes = {
            sensor._answers[16].starts.size
            for sensor in lane if sensor._answers is not None
        }
        ragged |= len(sizes) > 1
        wanted = [oracle_predict(twin) for twin in twins]
        # Two horizons, every sensor, one call.
        got = predict_many(lane, None)
        for sensor, twin, mine, theirs in zip(lane, twins, got, wanted):
            assert_same_outputs(mine, theirs, (tick, sensor.sensor_id))
            assert_same_state(sensor, twin)
        awake_differs |= len({
            tuple(sensor.ensemble(1).awake_cells()) for sensor in lane
        }) > 1

        values = [future[tick] for future in futures]
        if 30 <= tick < 36:
            # The lane steps as two groups: two LaneStacks, packed back
            # into one by the next predict_many.
            absorb_many(lane[:4], values[:4])
            absorb_many(lane[4:], values[4:])
            stacks = {id(s.engine.window_index._stack) for s in lane}
            assert len(stacks) == 2
        else:
            absorb_many(lane, values)
        found = search_many([sensor.engine for sensor in lane])
        for sensor, answers in zip(lane, found):
            sensor.install(answers)
        for twin, value in zip(twins, values):
            twin.observe(value)

    assert awake_differs, "no tick had cells asleep on some sensors only"
    assert ragged, "no tick stacked answers of different sizes"
    assert any(
        state.asleep
        for sensor in lane for h in CONFIG.horizons
        for state in (sensor.ensemble(h).state(c) for c in sensor.ensemble(h).cells)
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_single_predict_and_reduced_rung_are_lanes_of_one(backend_name):
    history, future = split(histories(4)[3])
    sensor = SMiLer(history, CONFIG, backend=make_backend(backend_name))
    twin = make_twin(history, backend_name, 0)
    for tick in range(12):
        want = oracle_predict(twin, horizon=3)
        assert_same_outputs(sensor.predict(horizon=3), want, tick)
        # The reduced rung: the (min k, min d) cell, never remembered.
        cell = min(CONFIG.grid)
        inputs = oracle_cell_inputs(twin, twin._answers, 1, [cell])
        reduced = OracleAggregationPredictor().predict(*inputs[cell])
        assert hexes(sensor.predict_reduced(1)) == hexes(reduced)
        assert_same_state(sensor, twin)
        sensor.observe(future[tick])
        twin.observe(future[tick])
    with pytest.raises(KeyError):
        sensor.predict(horizon=2)
    with pytest.raises(KeyError):
        sensor.predict_reduced(2)


def test_a_failing_row_is_its_own_outcome():
    """A NaN target under one member: its outcome is the exception the
    per-sensor path raised, its neighbours' outcomes do not move."""
    backend = make_backend("native")
    lane, twins = [], []
    for i, full in enumerate(histories(5)):
        history, _ = split(full)
        lane.append(SMiLer(history, CONFIG, backend=backend, sensor_id=f"s{i}"))
        twins.append(make_twin(history, "native", i))
    for smiler in lane + twins:
        smiler._current_answers()
    victim = 3
    for smiler in (lane[victim], twins[victim]):
        index = smiler.engine.window_index
        at = int(smiler._answers[8].starts[0]) + 8 - 1 + 1
        index._stack.series[index._row, at] = np.nan

    got = predict_many(lane, None)
    for at, (sensor, twin) in enumerate(zip(lane, twins)):
        if at == victim:
            with pytest.raises(ValueError, match="finite"):
                oracle_predict(twin)
            assert isinstance(got[at], ValueError)
            assert "finite" in str(got[at])
            assert not any(sensor._pending[h] for h in CONFIG.horizons)
            with pytest.raises(ValueError, match="finite"):
                sensor.predict()
        else:
            assert_same_outputs(got[at], oracle_predict(twin), sensor.sensor_id)


def test_an_unknown_horizon_fails_only_its_sensor_and_unobserved_targets_too():
    backend = make_backend("native")
    narrow = SMiLerConfig(
        elv=(8, 16), ekv=(1, 4, 8), rho=2, omega=4, horizons=(1,),
        predictor="ar",
    )
    history, _ = split(histories(2)[0])
    both = SMiLer(history, CONFIG, backend=backend, sensor_id="both")
    # Same search configuration (margin 3), but only horizon 1 configured.
    one = SMiLer(history, narrow, backend=backend, sensor_id="one")
    one.engine = both.engine.__class__(
        history, both.engine.config, backend=backend
    )
    got = predict_many([both, one], 3)
    assert sorted(got[0]) == [3]
    assert isinstance(got[1], KeyError)
    assert predict_many([], 1) == []

    # A target index past the observed series is reported, not read from
    # the stack's zero-filled padding.
    both._answers[8].starts[0] = both.series.size - 8
    [outcome] = predict_many([both], 1)
    assert isinstance(outcome, IndexError)

    other = SMiLer(history, CONFIG, backend=make_backend("native"))
    with pytest.raises(ValueError, match="share one backend"):
        predict_many([both, other], 1)


def test_a_two_sensor_gp_lane_keeps_its_bits_and_its_training():
    """GP cells go through the default ``predict_rows``: same
    predictions, same trained hyperparameters, same CG and evaluation
    counts as each sensor predicted alone."""
    config = SMiLerConfig(
        elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1, 2),
        predictor="gp", initial_train_iters=6, online_train_iters=2,
    )
    backend = make_backend("simulated")
    series = histories(2, seed=5)
    lane, twins, futures = [], [], []
    for i, full in enumerate(series):
        history, future = split(full)
        lane.append(SMiLer(history, config, backend=backend, sensor_id=f"g{i}"))
        twins.append(SMiLer(
            history, config, backend=make_backend("simulated"),
            sensor_id=f"twin-g{i}",
        ))
        futures.append(future)
    for tick in range(8):
        wanted = [oracle_predict(twin) for twin in twins]
        got = predict_many(lane, None)
        for sensor, twin, mine, theirs in zip(lane, twins, got, wanted):
            assert_same_outputs(mine, theirs, (tick, sensor.sensor_id))
            assert_same_state(sensor, twin)
            for h in config.horizons:
                for cell in config.grid:
                    a = sensor.ensemble(h).state(cell).predictor
                    b = twin.ensemble(h).state(cell).predictor
                    assert np.array_equal(a._log_params, b._log_params)
                    assert (
                        a.train_calls, a.cg_iterations,
                        a.objective_evaluations, a.gradient_evaluations,
                    ) == (
                        b.train_calls, b.cg_iterations,
                        b.objective_evaluations, b.gradient_evaluations,
                    )
        values = [future[tick] for future in futures]
        absorb_many(lane, values)
        for sensor, answers in zip(
            lane, search_many([sensor.engine for sensor in lane])
        ):
            sensor.install(answers)
        for twin, value in zip(twins, values):
            twin.observe(value)


# ----------------------------------------------------------- service shell
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_forecast_fields_equal_the_per_sensor_shell(backend_name):
    """``forecast_all`` over a 60-tick lane: every ``Forecast`` float is
    the one the per-sensor op computed through one-element arrays."""
    config = SMiLerConfig(
        elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1, 3),
        predictor="ar",
    )
    service = PredictionService(
        config, backends=make_backend(backend_name), min_history=100
    )
    twins, stats, futures = {}, {}, {}
    rng = np.random.default_rng(2)
    for i in range(8):
        n = 220 + 13 * i
        t = np.arange(n + TICKS)
        raw = 40.0 * (i + 1) + (3.0 + i) * np.sin(t / (6.0 + i)) + (
            0.4 * rng.standard_normal(t.size)
        )
        sid = f"s{i}"
        service.register(sid, raw[:n])
        stats[sid] = ZNormStats(
            mean=float(np.mean(raw[:n])), std=max(float(np.std(raw[:n])), 1e-12)
        )
        twins[sid] = as_oracle(SMiLer(
            stats[sid].apply(raw[:n]), config,
            backend=make_backend(backend_name), sensor_id=sid,
        ))
        futures[sid] = raw[n:]
    try:
        for tick in range(TICKS):
            horizon, level = (1, 0.95) if tick % 2 else (3, 0.8)
            batch = service.forecast_all(horizon=horizon, level=level)
            assert batch.ok
            for sid, twin in twins.items():
                output = oracle_predict(twin, horizon)[horizon]
                want = oracle_forecast_fields(
                    stats[sid], output.mean, output.variance, level
                )
                forecast = batch[sid]
                got = (
                    forecast.mean, forecast.std,
                    forecast.interval_low, forecast.interval_high,
                )
                assert [x.hex() for x in got] == [float(x).hex() for x in want]
                assert forecast.source == "ensemble" and not forecast.degraded
            readings = {sid: float(futures[sid][tick]) for sid in twins}
            service.ingest_many(readings)
            for sid, value in readings.items():
                # The shell's scalar z-normalisation against the array form.
                twins[sid].observe(stats[sid].apply(np.array([value]))[0])
            if tick == 30:
                one = service.forecast("s3", horizon=1)
                twin = twins["s3"]
                output = oracle_predict(twin, 1)[1]
                assert one.mean.hex() == float(oracle_forecast_fields(
                    stats["s3"], output.mean, output.variance, 0.95
                )[0]).hex()
        for sid, twin in twins.items():
            assert np.array_equal(service.sensor(sid).series, twin.series)
    finally:
        service.close()


@given(
    value=st.floats(-1e9, 1e9, allow_nan=False, width=64),
    mean=st.floats(-1e6, 1e6, allow_nan=False, width=64),
    std=st.floats(1e-12, 1e6, allow_nan=False, width=64),
)
def test_scalar_z_normalisation_is_the_array_one(value, mean, std):
    stats = ZNormStats(mean=mean, std=std)
    scalar = (value - stats.mean) / stats.std
    assert scalar.hex() == float(stats.apply(np.array([value]))[0]).hex()
    z = scalar
    assert (z * stats.std + stats.mean).hex() == float(
        stats.invert(np.array([z]))[0]
    ).hex()
    variance = abs(z) + 1e-9
    assert (variance * stats.std**2).hex() == float(
        stats.invert_variance(np.array([variance]))[0]
    ).hex()


# ------------------------------------------------------------ predict_rows
@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 64),
    rows=st.integers(1, 12),
    surplus=st.integers(0, 5),
    exponent=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
    constant=st.booleans(),
)
def test_predict_rows_row_i_is_predict_on_row_i(
    k, rows, surplus, exponent, seed, constant
):
    """The pinned observation: a last-axis reduction over a ``[R, k]``
    stack — a fancy-indexed copy or a prefix *view* of a wider one — is
    bit for bit the reduction each row gets alone (NumPy's pairwise
    summation splits by length, not by neighbours)."""
    rng = np.random.default_rng(seed)
    d = 4
    wide = rng.standard_normal((rows, k + surplus)) * 10.0**exponent
    if constant:
        wide[:] = wide[:, :1]  # zero spread: the variance floor
    neighbours = rng.standard_normal((rows, k + surplus, d))
    queries = rng.standard_normal((rows, d))
    predictors = [AggregationPredictor() for _ in range(rows)]
    oracle = OracleAggregationPredictor()
    picked = rng.permutation(rows)
    stacks = {
        "view": (slice(None), wide[:, :k], neighbours[:, :k]),
        "copy": (picked, wide[picked, :k], neighbours[picked, :k]),
    }
    for name, (order, targets, segments) in stacks.items():
        outcomes = AggregationPredictor.predict_rows(
            predictors, queries[order], segments, targets
        )
        for row, outcome in zip(np.arange(rows)[order], outcomes):
            want = oracle.predict(queries[row], neighbours[row, :k], wide[row, :k])
            assert hexes(outcome) == hexes(want), name
            alone = predictors[0].predict(
                queries[row], neighbours[row, :k], wide[row, :k]
            )
            assert hexes(alone) == hexes(want), name
            if constant:
                assert outcome.variance == predictors[0].variance_floor


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_predict_rows_failures_per_row_and_shapes_per_stack():
    predictors = [AggregationPredictor() for _ in range(3)]
    queries = np.zeros((3, 4))
    neighbours = np.zeros((3, 5, 4))
    targets = np.arange(15.0).reshape(3, 5)
    targets[1, 2] = np.nan
    targets[2, 0] = np.inf
    good, nan, inf = AggregationPredictor.predict_rows(
        predictors, queries, neighbours, targets
    )
    assert hexes(good) == hexes(predictors[0].predict(
        queries[0], neighbours[0], targets[0]
    ))
    assert isinstance(nan, ValueError) and isinstance(inf, ValueError)

    for bad in (
        (predictors[:2], queries, neighbours, targets),
        (predictors, queries[:, :3], neighbours, targets),
        (predictors, queries, neighbours, targets[:, :4]),
        (predictors, queries, neighbours[:, :0], targets[:, :0]),
        (predictors, queries[0], neighbours, targets),
    ):
        with pytest.raises(ValueError):
            AggregationPredictor.predict_rows(*bad)


def test_default_predict_rows_loops_predict_and_returns_row_exceptions():
    class Fussy(SemiLazyPredictor):
        def predict(self, query, neighbours, targets):
            if targets[0] < 0:
                raise RuntimeError("negative target")
            return GaussianPrediction(float(targets.sum()), 1.0)

    targets = np.array([[1.0, 2.0], [-1.0, 0.0], [3.0, 4.0]])
    outcomes = Fussy.predict_rows(
        [Fussy() for _ in range(3)], np.zeros((3, 2)), np.zeros((3, 2, 2)),
        targets,
    )
    assert [getattr(o, "mean", None) for o in outcomes] == [3.0, None, 7.0]
    assert isinstance(outcomes[1], RuntimeError)
