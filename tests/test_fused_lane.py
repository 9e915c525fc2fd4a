"""Fused lanes: native shards on the inline engine serve as one lane.

Every unwrapped native backend is in one kernel domain
(:func:`repro.backend.base.kernel_domain`), so the inline engine runs
their shards' tasks as one lane and their sensors as one stacked group:
one index step, one search and one prediction per search configuration
(and horizon) a round, not one per shard.  The tests pin what must not
move — forecasts, kNN answers and end-state series equal bit for bit to
the same fleet on one native shard and to the same shards on the
process engine, across a whole lifecycle — and what must: the grouping,
the per-backend breaker accounting under a fused failure, and
evacuation inside the domain.
"""

import numpy as np
import pytest

import repro.service as service_module
from repro import obs
from repro.backend import BreakerConfig, make_backend
from repro.backend.base import HOST_DOMAIN, kernel_domain
from repro.core import SMiLerConfig
from repro.faults import FaultInjectingBackend, FaultProfile, KernelFaultError
from repro.service import SEARCH_ATTEMPTS, PredictionService, ServiceConfig

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1, 3),
    predictor="ar",
)
N_SENSORS = 12
HISTORY = 220
ROUNDS = 8


@pytest.fixture(autouse=True)
def _clean_global_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def streams():
    rng = np.random.default_rng(49)
    t = np.arange(HISTORY + ROUNDS)
    return {
        f"s{i:02d}": 50.0 + 20.0 * np.sin(t / 6.0 + rng.uniform(0, 6.3))
        + rng.normal(scale=0.4, size=t.size)
        for i in range(N_SENSORS)
    }


def build(kinds, engine="inline", breaker=None):
    """A service over one backend per entry of ``kinds``: ``native``,
    ``simulated`` or ``chaos`` (native under the chaos fault profile),
    all of one capacity, so placement spreads the fleet over them."""
    capacity = make_backend("simulated").free_bytes
    backends = [
        make_backend("simulated") if kind == "simulated"
        else make_backend(
            "native", capacity_bytes=capacity,
            fault_profile="chaos" if kind == "chaos" else None,
        )
        for kind in kinds
    ]
    return PredictionService(
        CONFIG, backends=backends, min_history=100, breaker=breaker,
        service_config=ServiceConfig(engine=engine),
    )


def forecast_bits(batch):
    assert not batch.errors
    return {
        sid: (f.mean.hex(), f.std.hex(), f.source) for sid, f in batch.items()
    }


def answer_bits(smiler):
    return {
        d: (answer.starts.tolist(), answer.distances.tobytes())
        for d, answer in smiler._current_answers().items()
    }


def lifecycle(service, streams, tmp_path, evacuate):
    """register → forecast_all → ingest_many (a late join) → deregister
    → evacuate → snapshot/restore → continue.  Returns every batch's
    forecast bits and the end state: each sensor's series and answers."""
    ids = sorted(streams)
    early, late = ids[:-2], ids[-2:]
    out = []

    def round_(svc, step):
        for horizon in CONFIG.horizons:
            out.append(forecast_bits(svc.forecast_all(horizon)))
        svc.ingest_many({
            sid: float(streams[sid][HISTORY + step]) for sid in svc.sensor_ids
        })

    for sid in early:
        service.register(sid, streams[sid][:HISTORY])
    round_(service, 0)
    for sid in late:  # joins a running lane, shorter by a reading
        service.register(sid, streams[sid][1:HISTORY + 1])
    round_(service, 1)
    service.deregister(ids[3])
    if evacuate:
        service.evacuate(1)
    round_(service, 2)
    round_(service, 3)
    service.snapshot(tmp_path)
    kinds = [backend.name for backend in service.backends]
    engine = service.engine.name
    service.close()
    service = build(kinds, engine)
    try:
        service.restore(tmp_path)
        for step in range(4, ROUNDS):
            round_(service, step)
        out.append(forecast_bits(service.forecast_all()))
        state = {
            sid: (
                np.asarray(service.sensor(sid).series).tobytes(),
                answer_bits(service.sensor(sid)),
            )
            for sid in service.sensor_ids
        }
        placements = {sid: service.placement_of(sid) for sid in service.sensor_ids}
    finally:
        service.close()
    return out, state, placements


def test_the_kernel_domain_is_the_host_for_native_backends_only():
    native, other = make_backend("native"), make_backend("native")
    simulated = make_backend("simulated")
    wrapped = FaultInjectingBackend(make_backend("native"), FaultProfile())
    assert kernel_domain(native) is kernel_domain(other) is HOST_DOMAIN
    assert kernel_domain(simulated) is simulated
    assert kernel_domain(wrapped) is wrapped


@pytest.mark.parametrize("shards", [2, 3])
def test_a_fused_lane_serves_the_bits_of_one_shard_and_of_the_process_engine(
    streams, tmp_path, shards
):
    fused = lifecycle(
        build(["native"] * shards), streams, tmp_path / "fused", evacuate=True
    )
    one_shard = lifecycle(
        build(["native"]), streams, tmp_path / "one", evacuate=False
    )
    process = lifecycle(
        build(["native"] * shards, "process"), streams, tmp_path / "process",
        evacuate=True,
    )
    batches, state, placements = fused
    assert all(
        row[2] == "ensemble" for batch in batches for row in batch.values()
    )
    assert len(batches) == 2 * ROUNDS + 1
    assert (batches, state) == one_shard[:2]
    assert (batches, state) == process[:2]
    # The restore re-placed the fleet over every shard: the last rounds
    # ran as one lane over all of them.
    assert placements == process[2]
    assert len(set(placements.values())) == shards


@pytest.mark.parametrize("kinds, engine, lanes", [
    (["native"] * 3, "inline", 1),
    (["simulated"] * 3, "inline", 3),
    (["chaos"] * 3, "inline", 3),
    (["native", "simulated", "native"], "inline", 2),
    (["native"] * 3, "process", 3),
    (["native"] * 3, "thread", 3),
])
def test_one_search_a_round_per_kernel_domain_on_inline_only(
    streams, kinds, engine, lanes
):
    """Native shards on the inline engine: one lane, one search, one
    stacked prediction a round.  A simulated or fault-wrapped backend is
    a domain of its own; the process and thread engines keep a lane per
    shard."""
    service = build(kinds, engine)
    try:
        for sid in sorted(streams):
            service.register(sid, streams[sid][:HISTORY])
        obs.enable()
        for step in range(2):
            service.ingest_many({
                sid: float(streams[sid][HISTORY + step]) for sid in streams
            })
            trace = service.trace_last_request()
            assert len(trace.find_all("lane")) == lanes
            assert len(trace.find_all("search")) == lanes
            assert len(trace.find_all("absorb_many")) == lanes
            service.forecast_all()
            trace = service.trace_last_request()
            assert len(trace.find_all("lane")) == lanes
            assert len(trace.find_all("predict")) == lanes
            assert not trace.find_all("search")  # answers fresh from the ingest
        # The lane series are per shard on every engine.
        sensors = obs.get_registry().get("smiler_lane_sensors_total")
        by_backend = {}
        for key in sensors.series_keys():
            labels = sensors.labels_of(key)
            by_backend[int(labels["backend"])] = sensors.value(**labels)
        counts = service.sensors_per_backend()
        assert by_backend == {i: 4.0 * n for i, n in enumerate(counts)}
    finally:
        service.close()


def failing_search(monkeypatch, fail_while):
    """Patch the service's search so it raises while ``fail_while()``;
    returns the size of every group it was asked to search."""
    search_many, calls = service_module.search_many, []

    def search(engines):
        calls.append(len(engines))
        if fail_while():
            raise KernelFaultError("injected fused-search failure")
        return search_many(engines)

    monkeypatch.setattr(service_module, "search_many", search)
    return calls


def test_a_failed_fused_search_charges_every_member_breaker_once(
    streams, monkeypatch, tmp_path
):
    """A fused attempt fails as a group: one failure on each member
    backend's breaker per attempt.  Readings are kept and the answers go
    stale; the next successful searches count one success per sensor on
    its own backend.  An evacuated native shard's sensors then finish on
    the survivor, bit for bit as a fleet that never failed."""
    ids = sorted(streams)[:7]
    service = build(["native", "native"], breaker=BreakerConfig(failure_threshold=9))
    twin = build(["native"])
    for svc in (service, twin):
        for sid in ids:
            svc.register(sid, streams[sid][:HISTORY])
    counts = service.sensors_per_backend()
    assert sorted(counts) == [3, 4]

    def health():
        return [service._pool.health_dict(i) for i in range(2)]

    readings = {sid: float(streams[sid][HISTORY]) for sid in ids}
    twin.ingest_many(readings)
    failing = True
    calls = failing_search(monkeypatch, lambda: failing)
    before = health()
    service.ingest_many(readings)
    attempts = SEARCH_ATTEMPTS
    assert calls == [len(ids)] * attempts  # one fused group, every attempt
    for was, now in zip(before, health()):
        assert now["failures_total"] - was["failures_total"] == attempts
        assert now["successes_total"] == was["successes_total"]
        assert now["state"] == "closed"
    for sid in ids:
        smiler = service.sensor(sid)
        assert smiler.series.size == HISTORY + 1  # the reading is kept
        assert smiler._answers is None  # ... the answers are stale

    failing = False
    before = health()
    batch = service.forecast_all()  # re-searches the stale lane first
    assert calls[attempts:] == [len(ids)]
    assert forecast_bits(batch) == forecast_bits(twin.forecast_all())
    for index, (was, now) in enumerate(zip(before, health())):
        assert now["successes_total"] - was["successes_total"] == counts[index]
        assert now["failures_total"] == was["failures_total"]

    moved = service.evacuate(0)
    assert len(moved) == counts[0]
    assert service.sensors_per_backend() == [0, len(ids)]
    for step in range(1, 4):
        readings = {sid: float(streams[sid][HISTORY + step]) for sid in ids}
        service.ingest_many(readings)
        twin.ingest_many(readings)
        batch = service.forecast_all()
        assert forecast_bits(batch) == forecast_bits(twin.forecast_all())
        assert {row.source for row in batch.values()} == {"ensemble"}
    assert health()[1]["failures_total"] == attempts
    assert {service.placement_of(sid) for sid in ids} == {1}
    for sid in ids:
        assert answer_bits(service.sensor(sid)) == answer_bits(twin.sensor(sid))
