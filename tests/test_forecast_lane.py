"""Differential identity battery for the forecast lane.

``predict_many`` replaced the per-sensor body of ``SMiLer.predict`` (and
``_cell_inputs``), ``AggregationPredictor.predict_rows`` the one-row
reduction, ``PredictionService._forecast_lane`` the per-sensor
``_forecast_op``.  The deleted bodies are kept here verbatim as the
oracle — twins of the lane's sensors, fed the same readings, predicted
one sensor and one cell at a time, one ``GaussianPrediction`` per cell —
and every float the lane produces must be ``float.hex()``-equal to
theirs, whatever shares the stack.  The oracle's per-cell dicts are laid
out as the lane's rows (cell order, 0.0 where a cell did not predict)
only to be remembered and compared.
"""

import cProfile
import dataclasses
import gc
import pstats
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erfinv

from repro.backend import make_backend
from repro.core import SMiLerConfig
from repro.core.ar import AggregationPredictor
from repro.core.gp_predictor import GaussianProcessPredictor
from repro.core.ensemble import Components, EnsembleOutput
from repro.core.predictor import GaussianPrediction, SemiLazyPredictor
from repro.core.smiler import SMiLer, absorb_many, predict_many
from repro.faults import FaultInjectingBackend, FaultProfile
from repro.index import search_many
from repro.service import PredictionService, ServiceConfig
from repro.timeseries.series import ZNormStats
from repro.tolerances import AR_VARIANCE_FLOOR, STD_FLOOR

BACKENDS = ["simulated", "native"]

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(1, 4, 8), rho=2, omega=4, horizons=(1, 3),
    predictor="ar",
)
TICKS = 60


# ------------------------------------------------------------------ oracle
class OracleAggregationPredictor(SemiLazyPredictor):
    """``AggregationPredictor.predict`` as it was: one row, reduced alone."""

    variance_floor = AR_VARIANCE_FLOOR

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


def fold(terms):
    """``sum()`` as CPython 3.11 computes it: left to right, from 0.  The
    oracles fold explicitly so their bits do not move with the
    interpreter (from 3.12 ``sum()`` of floats is compensated)."""
    total = 0
    for term in terms:
        total = total + term
    return total


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
    total = fold(weights.values())
    norm = {cell: w / total for cell, w in weights.items()}
    mean = fold(norm[c] * components[c].mean for c in awake)
    second_moment = fold(
        norm[c] * (components[c].variance + components[c].mean ** 2)
        for c in awake
    )
    variance = max(second_moment - mean**2, 1e-10)
    return EnsembleOutput(
        mean=mean, variance=variance,
        components=as_components(ensemble.cells, components),
        weights=as_row(ensemble.cells, norm),
    )


def as_row(cells, by_cell):
    """A ``{cell: float}`` dict as a row in cell order, 0.0 where absent."""
    return np.array([by_cell.get(cell, 0.0) for cell in cells], dtype=np.float64)


def as_components(cells, predictions):
    """``{cell: GaussianPrediction}`` as the lane's ``[C]`` row."""
    return Components(
        np.array([cell in predictions for cell in cells]),
        as_row(cells, {cell: p.mean for cell, p in predictions.items()}),
        as_row(cells, {cell: p.variance for cell, p in predictions.items()}),
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
        remember(smiler, h, output)
    return outputs


def remember(smiler, h, output):
    """``SMiLer._remember`` as a lane of one: ``output``'s components,
    due at ``now - 1 + h``, kept in its ensemble's stack row."""
    ensemble = smiler.ensemble(h)
    ensemble._stack.remember(
        np.array([ensemble._row]), np.array([smiler.now - 1 + h]), h,
        Components(*(field[None] for field in output.components)),
    )


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


def row_hexes(row):
    return [float(value).hex() for value in row.tolist()]


def assert_same_components(got, want, who):
    """Same cells present, every mean and variance to the bit."""
    assert got.present.tolist() == want.present.tolist(), who
    assert row_hexes(got.mean) == row_hexes(want.mean), who
    assert row_hexes(got.variance) == row_hexes(want.variance), who


def assert_same_outputs(got, want, who):
    assert not isinstance(got, Exception), (who, got)
    assert sorted(got) == sorted(want), who
    for h in want:
        assert_same_components(got[h].components, want[h].components, (who, h))
        assert hexes(got[h]) == hexes(want[h]), (who, h)
        assert row_hexes(got[h].weights) == row_hexes(want[h].weights), (who, h)


def assert_same_state(sensor, twin):
    """Everything a prediction leaves behind: the pending-update queues
    and — after the next reading scores them — weights and sleepers."""
    for h in twin.config.horizons:
        got, want = sensor.pending(h), twin.pending(h)
        assert [due for due, _ in got] == [due for due, _ in want]
        for (_, mine), (_, theirs) in zip(got, want):
            assert_same_components(mine, theirs, h)
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
    shorter than ``k_max`` (installed as a plain dict: a lane's answers
    are built when read, so editing one read edits nothing)."""
    answers = dict(smiler._answers)
    answer = answers[d]
    answers[d] = dataclasses.replace(
        answer, starts=answer.starts[:keep], distances=answer.distances[:keep]
    )
    smiler.install(answers)


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
            assert not any(sensor.pending(h) for h in CONFIG.horizons)
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


def test_a_lane_spans_native_backends_but_no_other_kernel_domain():
    """Two native backends share one kernel domain: their sensors
    predict as one lane, bit for bit as each alone.  Any other pairing —
    simulated with simulated, native with simulated, a fault-wrapped
    native backend — is refused."""
    history, _ = split(histories(2)[0])

    def pair(first, second):
        return [
            SMiLer(history, CONFIG, backend=backend, sensor_id=f"s{at}")
            for at, backend in enumerate((first, second))
        ]

    lane = pair(make_backend("native"), make_backend("native"))
    twins = pair(make_backend("native"), make_backend("native"))
    got = predict_many(lane, None)
    for at, twin in enumerate(twins):
        assert_same_outputs(got[at], predict_many([twin], None)[0], at)

    def wrapped():
        return FaultInjectingBackend(make_backend("native"), FaultProfile())

    for first, second in (
        (make_backend("simulated"), make_backend("simulated")),
        (make_backend("native"), make_backend("simulated")),
        (make_backend("native"), wrapped()),
        (wrapped(), make_backend("native")),
    ):
        with pytest.raises(ValueError, match="share one kernel domain"):
            predict_many(pair(first, second), 1)


def test_a_two_sensor_gp_lane_keeps_its_bits_and_its_training():
    """GP cells go through the GP lane's ``predict_rows``: same
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


# ------------------------------------------------------- cost per sensor
#: Python calls (cProfile's count) that 24 more sensors add to one
#: ``forecast_all`` and to one ``ingest_many`` of a native AR lane (8 ->
#: 32 sensors), pinned on CPython 3.11 as the digests are: other
#: versions inline or count differently.  A forecast lane carries arrays,
#: so what is left per sensor is the lane planning and the boundary's
#: ``Forecast`` and its de-normalisation: 9 calls a sensor.  Ingest
#: checks each reading's finiteness with ``math.isfinite``, a builtin
#: cProfile counts (the ``np.isfinite`` ufunc it replaced was not
#: counted, and cost over ten times more), and z-normalises it once:
#: two of its 11.8 calls a sensor.
CALLS_FOR_24_MORE = {"forecast_all": 216, "ingest_many": 284}
#: A ceiling on any version: 20 calls a forecast sensor, and no more on
#: ingest than before the lane carried arrays (1 386 and 980 then).
CALLS_CEILING = {"forecast_all": 20 * 24, "ingest_many": 980}


def calls_per_round(n_sensors):
    """cProfile's call counts of one warm ``forecast_all`` and one
    ``ingest_many`` over ``n_sensors`` AR sensors on two native shards,
    one fused lane of the inline engine, whatever ``REPRO_EXEC`` says.
    The collector is off while counting (a collection
    would count whatever finalizers it runs), and methods generated from
    source strings (dataclass and named-tuple methods, file
    ``<string>``) are left out: pstats keys a function by file, line and
    name, so all generated ``__init__`` share one key and all but one
    code object's count is dropped — which one depends on addresses."""
    config = SMiLerConfig(
        elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1, 3),
        predictor="ar",
    )
    service = PredictionService(
        config, backends=[make_backend("native"), make_backend("native")],
        min_history=100, service_config=ServiceConfig(engine="inline"),
    )
    streams = [
        10.0 * np.sin(np.arange(300) / (5.0 + i % 7)) + np.random.default_rng(
            i
        ).standard_normal(300)
        for i in range(n_sensors)
    ]
    for i, stream in enumerate(streams):
        service.register(f"s{i:03d}", stream[:260])
    for tick in range(260, 266):  # warm: cells asleep, stacks packed
        readings = {f"s{i:03d}": stream[tick] for i, stream in enumerate(streams)}
        if tick < 265:
            service.forecast_all()
            service.ingest_many(readings)
    counts = {}
    for name, call in (
        ("forecast_all", service.forecast_all),
        ("ingest_many", lambda: service.ingest_many(readings)),
    ):
        profiler, collecting = cProfile.Profile(), gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            profiler.runcall(call)
        finally:
            if collecting:
                gc.enable()
        counts[name] = sum(
            calls for (where, _, _), (_, calls, *_) in pstats.Stats(
                profiler
            ).stats.items() if where != "<string>"
        )
    return counts


def test_a_sensor_costs_a_forecast_lane_a_fixed_number_of_calls():
    few, many = calls_per_round(8), calls_per_round(32)
    added = {name: many[name] - few[name] for name in few}
    for name, ceiling in CALLS_CEILING.items():
        assert added[name] <= ceiling, (name, added)
    if sys.version_info[:2] == (3, 11):
        assert added == CALLS_FOR_24_MORE


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
        stats[sid] = ZNormStats.of(raw[:n])
        twins[sid] = as_oracle(SMiLer(
            stats[sid].apply(raw[:n]), config,
            backend=make_backend(backend_name), sensor_id=sid,
        ))
        futures[sid] = raw[n:]
    try:
        for tick in range(TICKS):
            horizon, level = (1, 0.95) if tick % 2 else (3, 0.8)
            batch = service.forecast_all(horizon=horizon, level=level)
            assert not batch.errors
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
    std=st.floats(STD_FLOOR, 1e6, allow_nan=False, width=64),
)
def test_scalar_z_normalisation_is_the_array_one(value, mean, std):
    """The service's scalar (de-)normalisation is ``ZNormStats`` on a
    float: a float out, the bits of the array form and of the arithmetic
    written out."""
    stats = ZNormStats(mean=mean, std=std)
    z = stats.apply(value)
    assert type(z) is float
    assert z.hex() == ((value - mean) / std).hex()
    assert z.hex() == float(stats.apply(np.array([value]))[0]).hex()
    raw = stats.invert(z)
    assert type(raw) is float
    assert raw.hex() == (z * std + mean).hex()
    assert raw.hex() == float(stats.invert(np.array([z]))[0]).hex()
    variance = abs(z) + 1e-9
    scaled = stats.invert_variance(variance)
    assert type(scaled) is float
    assert scaled.hex() == (variance * std**2).hex()
    assert scaled.hex() == float(
        stats.invert_variance(np.array([variance]))[0]
    ).hex()


# ------------------------------------------------------------ predict_rows
def never_gathered():
    raise AssertionError("the AR family read a neighbour gather")


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
    batch — a fancy-indexed copy or a prefix *view* of a wider one — is
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
    for name, order, targets in (
        ("view", slice(None), wide[:, :k]), ("copy", picked, wide[picked, :k])
    ):
        mean, variance, errors = AggregationPredictor.predict_rows(
            predictors, targets, never_gathered
        )
        assert errors == {}, name
        for at, row in enumerate(np.arange(rows)[order]):
            want = oracle.predict(queries[row], neighbours[row, :k], wide[row, :k])
            assert (mean[at].hex(), variance[at].hex()) == hexes(want), name
            alone = predictors[0].predict(
                queries[row], neighbours[row, :k], wide[row, :k]
            )
            assert hexes(alone) == hexes(want), name
            if constant:
                assert variance[at] == AR_VARIANCE_FLOOR


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_predict_rows_failures_per_row():
    """A row ``GaussianPrediction`` would refuse fails with the error it
    would raise and alone."""
    predictors = [AggregationPredictor() for _ in range(3)]
    queries = np.zeros((3, 4))
    neighbours = np.zeros((3, 5, 4))
    targets = np.arange(15.0).reshape(3, 5)
    targets[1, 2] = np.nan
    targets[2, 0] = np.inf
    mean, variance, errors = AggregationPredictor.predict_rows(
        predictors, targets, never_gathered
    )
    want = predictors[0].predict(queries[0], neighbours[0], targets[0])
    assert (mean[0].hex(), variance[0].hex()) == hexes(want)
    assert sorted(errors) == [1, 2]
    for row, error in errors.items():
        with pytest.raises(ValueError) as raised:
            predictors[row].predict(queries[row], neighbours[row], targets[row])
        assert type(error) is ValueError and str(error) == str(raised.value)


def test_default_predict_rows_loops_predict_and_keeps_row_exceptions():
    """The default row loop reads ``segments()`` once, rows of any ``d``."""

    class Fussy(SemiLazyPredictor):
        def predict(self, query, neighbours, targets):
            if targets[0] < 0:
                raise RuntimeError("negative target")
            assert neighbours.shape == (2, query.size)
            return GaussianPrediction(float(targets.sum()), 1.0)

    targets = np.array([[1.0, 2.0], [-1.0, 0.0], [3.0, 4.0]])
    gathers = []
    mean, variance, errors = Fussy.predict_rows(
        [Fussy() for _ in range(3)], targets,
        lambda: gathers.append(1) or (
            [np.zeros(d) for d in (2, 3, 4)],
            [np.zeros((2, d)) for d in (2, 3, 4)],
        ),
    )
    assert gathers == [1]
    assert (mean[[0, 2]].tolist(), variance[[0, 2]].tolist()) == (
        [3.0, 7.0], [1.0, 1.0]
    )
    assert list(errors) == [1] and isinstance(errors[1], RuntimeError)
    assert errors[1].__traceback__ is None


# ---------------------------------------------------------------- AR lane
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@settings(max_examples=120, deadline=None)
@given(
    layout=st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3, 8, 13]),  # take
            st.integers(1, 5),  # rows
            st.integers(0, 3),  # surplus columns: a prefix view or a copy
        ),
        min_size=1, max_size=8,
    ),
    poisoned=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_ar_stacks_of_one_k_reduce_together_and_equal_each_row(
    layout, poisoned, seed
):
    """Batches of one ``k`` each, NaN and inf rows among them: one
    moments reduction per batch, every row bit for bit what ``predict``
    gives it alone (or the error it raises), and the neighbours never
    gathered."""
    from unittest import mock

    from repro.core import ar

    rng = np.random.default_rng(seed)
    d = 3
    moments = ar._moments
    for take, rows, surplus in layout:
        wide = rng.standard_normal((rows, take + surplus)) * 10.0
        for value in poisoned:
            wide[rng.integers(rows), rng.integers(take)] = value
        targets = wide[:, :take] if surplus else wide.copy()
        queries = rng.standard_normal((rows, d))
        neighbours = rng.standard_normal((rows, take, d))
        with mock.patch.object(ar, "_moments", side_effect=moments) as counted:
            mean, variance, errors = AggregationPredictor.predict_rows(
                [AggregationPredictor() for _ in range(rows)], targets,
                never_gathered,
            )
        assert counted.call_count == 1
        assert mean.shape == variance.shape == (rows,)
        for row, (query, segments, values) in enumerate(
            zip(queries, neighbours, targets)
        ):
            try:
                want = AggregationPredictor().predict(query, segments, values)
            except ValueError as error:
                assert row in errors, row
                assert type(errors[row]) is ValueError
                assert str(errors[row]) == str(error)
            else:
                assert row not in errors, (row, errors[row])
                assert (mean[row].hex(), variance[row].hex()) == hexes(want)
                oracle = OracleAggregationPredictor().predict(
                    query, segments, values
                )
                assert hexes(oracle) == hexes(want)


def warm_ar_service(elv, ekv=(2, 4), sensors=3):
    """A warm inline AR service on two native shards, sleep off (every
    cell awake, every answer ``k_max`` long)."""
    config = SMiLerConfig(
        elv=elv, ekv=ekv, rho=2, omega=4, horizons=(1, 3), predictor="ar",
        sleep_enabled=False,
    )
    service = PredictionService(
        config, backends=[make_backend("native"), make_backend("native")],
        min_history=100, service_config=ServiceConfig(engine="inline"),
    )
    streams = [
        np.sin(np.arange(280) / (4.0 + i)) + 0.1 * np.random.default_rng(
            i
        ).standard_normal(280)
        for i in range(sensors)
    ]
    for i, stream in enumerate(streams):
        service.register(f"s{i}", stream[:260])
    for tick in range(260, 264):
        service.forecast_all()
        service.ingest_many({f"s{i}": s[tick] for i, s in enumerate(streams)})
    return service, config


@pytest.mark.parametrize("elv", [(8,), (8, 16), (8, 12, 16)])
def test_a_warm_ar_lane_reduces_once_per_take(elv):
    """The cost pin: a warm AR-lane ``forecast_all`` runs the moments
    reduction once per distinct neighbour count per horizon, however
    many item lengths (cells per ``k``) the grid has."""
    from unittest import mock

    from repro.core import ar

    service, config = warm_ar_service(elv)
    try:
        moments = ar._moments
        for horizon in config.horizons:
            with mock.patch.object(ar, "_moments", side_effect=moments) as counted:
                batch = service.forecast_all(horizon=horizon)
            assert not batch.errors
            assert {f.source for f in batch.values()} == {"ensemble"}
            assert counted.call_count == len(config.ekv), horizon
    finally:
        service.close()


def test_an_ar_lane_never_gathers_neighbours_and_a_gp_lane_does():
    """The AR family reads only targets: with the neighbour gather
    raising, a forecast still serves from the ensemble rung, to the same
    bits.  A GP lane reads the neighbours, one gather per item length."""
    from unittest import mock

    from repro.core import smiler

    service, _ = warm_ar_service((8, 16))
    try:
        want = service.forecast_all()
        with mock.patch.object(
            smiler, "_windows", side_effect=AssertionError("gathered")
        ):
            got = service.forecast_all()
        assert not got.errors
        for sid, forecast in want.items():
            mine = got[sid]
            assert mine.source == forecast.source == "ensemble"
            assert (mine.mean.hex(), mine.std.hex()) == (
                forecast.mean.hex(), forecast.std.hex()
            )
    finally:
        service.close()

    config = SMiLerConfig(
        elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1,),
        predictor="gp", initial_train_iters=2, online_train_iters=1,
    )
    backend = make_backend("native")
    lane = [
        SMiLer(split(full)[0], config, backend=backend, sensor_id=f"g{i}")
        for i, full in enumerate(histories(2, seed=5))
    ]
    windows = smiler._windows
    with mock.patch.object(smiler, "_windows", side_effect=windows) as counted:
        outcomes = predict_many(lane, 1)
    assert not any(isinstance(outcome, Exception) for outcome in outcomes)
    assert counted.call_count == len(config.elv)


# ------------------------------------------------------ one batch per take
MIXED = SMiLerConfig(
    elv=(8, 16), ekv=(2, 4, 8), rho=2, omega=4, horizons=(1, 3),
    predictor="ar", initial_train_iters=3, online_train_iters=1,
    sleep_enabled=False,
)


def mixed_lane(backend):
    """An AR and a GP sensor of one search configuration, each with a
    short twin whose d=16 answers hold 3 or 4 of ``k_max`` = 8 starts."""
    gp = dataclasses.replace(MIXED, predictor="gp")
    rng = np.random.default_rng(8)
    lane = [
        SMiLer(
            np.sin(np.arange(n) / 5.0) + 0.1 * rng.standard_normal(n), config,
            backend=backend, sensor_id=f"{config.predictor}-{n}",
        )
        for config, n in ((MIXED, 200), (gp, 200), (gp, 22), (MIXED, 21))
    ]
    for sensor, answers in zip(lane, search_many([s.engine for s in lane])):
        sensor.install(answers)
    return lane


def mixed_cells(lane, horizon):
    """Every cell of every sensor of ``lane`` at ``horizon``, as
    ``_LaneKnn.predict_cells`` takes them, with each row's ``(family,
    take)`` in position order."""
    cells, keys = [], []
    for k, d in MIXED.grid:
        predictors = [sensor.ensemble(horizon).predictors[k, d] for sensor in lane]
        cells.append(((k, d), list(range(len(lane))), predictors))
        keys.extend(
            (type(predictor), min(k, sensor._answers[d].starts.size))
            for sensor, predictor in zip(lane, predictors)
        )
    return cells, keys


def test_a_mixed_lane_makes_one_call_per_family_and_take():
    """An AR and a GP family in one lane, some answers short: per horizon
    one ``predict_rows`` call per ``(family, take)``, across cells, item
    lengths and sensors, holding every row of it; each sensor's outputs
    bit for bit its own lane of one."""
    from collections import Counter
    from unittest import mock

    lane = mixed_lane(make_backend("native"))
    twins = mixed_lane(make_backend("native"))
    calls = []

    def spy(family):
        original = family.predict_rows

        def predict_rows(predictors, targets, segments):
            calls.append((family, targets.shape[1], len(predictors)))
            return original(predictors, targets, segments)

        return mock.patch.object(family, "predict_rows", staticmethod(predict_rows))

    for h in MIXED.horizons:
        _, keys = mixed_cells(lane, h)
        assert {take for _, take in keys} - set(MIXED.ekv)  # a short answer
        calls.clear()
        with spy(AggregationPredictor), spy(GaussianProcessPredictor):
            got = predict_many(lane, h)
        assert len(calls) == len(set(keys)), h
        assert {(f, take): rows for f, take, rows in calls} == Counter(keys), h
        for at, twin in enumerate(twins):
            assert_same_outputs(got[at], predict_many([twin], h)[0], (h, at))


@pytest.mark.parametrize("broken", ["ar-take-4", "gp"])
def test_a_family_that_raises_fails_only_its_own_batch(broken):
    """A ``predict_rows`` call that raises fails the rows of its batch,
    each with that exception (no traceback), and no other row moves."""
    from unittest import mock

    from repro.core.smiler import _LaneKnn

    family = AggregationPredictor if broken.startswith("ar") else (
        GaussianProcessPredictor
    )
    original = family.predict_rows
    error = RuntimeError("the family fell over")

    def predict_rows(predictors, targets, segments):
        if broken == "gp" or targets.shape[1] == 4:
            raise error
        return original(predictors, targets, segments)

    clean, faulty = mixed_lane(make_backend("native")), mixed_lane(
        make_backend("native")
    )
    want_mean, want_variance, want_errors = _LaneKnn(clean).predict_cells(
        1, mixed_cells(clean, 1)[0]
    )
    cells, keys = mixed_cells(faulty, 1)
    with mock.patch.object(family, "predict_rows", staticmethod(predict_rows)):
        mean, variance, errors = _LaneKnn(faulty).predict_cells(1, cells)
    assert want_errors == {}
    hit = [
        at for at, (kind, take) in enumerate(keys)
        if kind is family and (broken == "gp" or take == 4)
    ]
    assert hit and sorted(errors) == hit
    assert all(errors[at] is error for at in hit)
    assert error.__traceback__ is None
    kept = [at for at in range(len(keys)) if at not in errors]
    assert row_hexes(mean[kept]) == row_hexes(want_mean[kept])
    assert row_hexes(variance[kept]) == row_hexes(want_variance[kept])
