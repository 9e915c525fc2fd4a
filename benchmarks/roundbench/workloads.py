"""The five workloads and the seeded input generator.

Pure NumPy on purpose: nothing here imports the program under test, so
the program only ever receives the generated arrays.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "MAX_ROUNDS",
    "MIN_ROUNDS",
    "WARMUP_ROUNDS",
    "WORKLOADS",
    "Workload",
    "generate",
    "sensor_id",
    "smoke_variant",
]

#: Rounds driven before the measured phase (first search seeds, initial
#: 25-iteration GP fits, process-engine fork); part of ``setup_s``.
WARMUP_ROUNDS = 3
#: A measured phase never stops before this many rounds, so p90 always
#: has ten samples beyond it; deterministic accounting (mae, degraded
#: share, simulated seconds, forecast digest) is taken over exactly this
#: prefix so it repeats whatever is measured after it.
MIN_ROUNDS = 100
#: Length of the generated reading streams; a measured phase stops here
#: even if ``--seconds`` has not elapsed.
MAX_ROUNDS = 400

_SMALL_AR = dict(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1, 3), predictor="ar"
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Generator key: workloads sharing it receive byte-identical arrays.
    inputs: str
    sensors: int
    history: int
    backend: str
    shards: int
    engine: str
    #: ``SMiLerConfig`` keyword arguments.
    config: dict
    fault_profile: str | None = None
    #: Every n-th measured round: deregister the oldest sensor, register
    #: a fresh one (0 = never).
    churn_every: int = 0
    #: Every n-th measured round: snapshot -> close -> new service ->
    #: restore (0 = never).
    restore_every: int = 0
    #: Traced pass: rounds recorded (a multiple of the block length; as
    #: many plain rounds alternate with them) and sensors shadowed.
    trace_rounds: int = 24
    probe_sensors: int = 4
    #: Run the inline/thread/process engine sweep in the traced pass.
    engine_sweep: bool = False
    #: Least rounds measured (the accounting prefix stays ``MIN_ROUNDS``).
    min_rounds: int = MIN_ROUNDS


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fleet-stream",
            why="Many small sensors: ingest is ~95% of the round and the time "
            "is per-sensor Python/launch glue, so fleet-fused search and a "
            "thinner shell must show here; DTW-kernel or GP work should not.",
            inputs="fleet-stream", sensors=48, history=280,
            backend="native", shards=2, engine="inline", config=_SMALL_AR,
            engine_sweep=True,
        ),
        Workload(
            name="fleet-stream-proc",
            why="Byte-identical inputs to fleet-stream through the process "
            "engine: the exec layer (wire protocol, shared memory, telemetry "
            "drain) does the dispatch, so keep-or-cut an engine is decidable.",
            inputs="fleet-stream", sensors=48, history=280,
            backend="native", shards=2, engine="process", config=_SMALL_AR,
            engine_sweep=True,
            # Two workers beside the caller on two cores: the tail is at
            # the scheduler's mercy, and p90 over ~115 rounds swung 11 %
            # between runs; twice the rounds settle it.
            min_rounds=200,
        ),
        Workload(
            name="deep-search",
            why="Two 8000-point histories, wide band (rho=24), paper ELV/EKV: "
            "cascade tiers, envelopes and DTW verification dominate and "
            "per-sensor glue is small; simulated backend so launches are exact.",
            inputs="deep-search", sensors=2, history=8000,
            backend="simulated", shards=1, engine="inline",
            config=dict(rho=24, omega=16, predictor="ar"),
            trace_rounds=12, probe_sensors=2,
        ),
        Workload(
            name="gp-forecast",
            why="Paper-default 3x3 GP ensemble on one sensor: the prediction "
            "step (LOO-CG training, Cholesky, mixing, sleep scheduler) does "
            "most of the work; GP changes show here and nowhere else.",
            inputs="gp-forecast", sensors=1, history=2000,
            backend="native", shards=1, engine="inline",
            config=dict(predictor="gp"),
            trace_rounds=12, probe_sensors=1,
        ),
        Workload(
            name="churn-faulted",
            why="Writes beside reads under seeded kernel faults: register, "
            "deregister and snapshot/restore next to index steps, plus "
            "retries, ladder, breakers; dearer build or ladder shows here.",
            inputs="churn-faulted", sensors=32, history=400,
            backend="simulated", shards=2, engine="inline", config=_SMALL_AR,
            fault_profile="flaky-kernels", churn_every=2, restore_every=20,
        ),
    )
}


def smoke_variant(workload: Workload) -> Workload:
    """CI-sized variant: 8 sensors, 10 measured rounds."""
    return replace(
        workload,
        sensors=min(8, workload.sensors),
        min_rounds=10,
        trace_rounds=4,
        probe_sensors=min(2, workload.probe_sensors),
        restore_every=5 if workload.restore_every else 0,
    )


def sensor_id(stream: int) -> str:
    return f"s{stream:03d}"


#: Signal shape per generator key (raw units; periods in samples).  The
#: seed moves phases, noise, trend and event placement, never the shape,
#: so every seed asks about the same amount of work of the program.
#: Events are shallower on the workloads with one or two sensors: with
#: so few scored forecasts a single deep dip would set ``mae`` (it swung
#: 34 % between seeds); and deep-search's road is smoother, because how
#: many candidates survive the lower bounds — and so the round's cost —
#: follows the noise level (at noise 1.5 one sensor's round ran
#: 81-122 ms across eight seeds).
_SIGNALS = {
    "fleet-stream": dict(day=24, season=168, a_day=25.0, a_season=8.0,
                         rw=0.25, noise=1.0, event_rate=1 / 150, a_event=18.0),
    "deep-search": dict(day=96, season=672, a_day=30.0, a_season=10.0,
                        rw=0.05, noise=0.5, event_rate=1 / 600, a_event=8.0),
    "gp-forecast": dict(day=48, season=336, a_day=20.0, a_season=6.0,
                        rw=0.2, noise=1.0, event_rate=1 / 300, a_event=6.0),
    "churn-faulted": dict(day=24, season=168, a_day=25.0, a_season=8.0,
                          rw=0.25, noise=1.0, event_rate=1 / 150, a_event=18.0),
}


def n_streams(workload: Workload) -> int:
    """Initial sensors plus every fresh sensor churn can ask for."""
    if not workload.churn_every:
        return workload.sensors
    return workload.sensors + MAX_ROUNDS // workload.churn_every


def generate(workload: Workload, seed: int) -> np.ndarray:
    """ROAD-like streams, shape ``(n_streams, history + warm-up + MAX_ROUNDS)``.

    A pure function of ``(workload.inputs, workload sizes, seed)``: daily
    term with a first harmonic, slow seasonal term, random-walk trend,
    white noise and occasional regime events (half-cosine dips, as a
    congestion episode looks on a road sensor).  Stream ``i`` is drawn
    ``i``-th, so a smoke variant's streams are the full run's first ones.
    """
    shape = _SIGNALS[workload.inputs]
    length = workload.history + WARMUP_ROUNDS + MAX_ROUNDS
    rng = np.random.default_rng([seed, zlib.crc32(workload.inputs.encode())])
    t = np.arange(length, dtype=np.float64)
    streams = np.empty((n_streams(workload), length))
    for i in range(streams.shape[0]):
        phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        gain = 1.0 + 0.1 * rng.uniform(-1.0, 1.0)
        day = 2.0 * np.pi * t / shape["day"]
        values = 100.0 + 10.0 * rng.uniform(-1.0, 1.0)
        values = values + gain * shape["a_day"] * (
            np.sin(day + phase[0]) + 0.3 * np.sin(2.0 * day + phase[1])
        )
        values += shape["a_season"] * np.sin(
            2.0 * np.pi * t / shape["season"] + phase[2]
        )
        values += np.cumsum(rng.normal(0.0, shape["rw"], length))
        values += rng.normal(0.0, shape["noise"], length)
        for _ in range(rng.poisson(length * shape["event_rate"])):
            start = int(rng.integers(0, length))
            span = int(rng.integers(6, 25))
            depth = shape["a_event"] * rng.uniform(0.5, 1.5)
            stop = min(start + span, length)
            bump = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(span) / span))
            values[start:stop] -= depth * bump[: stop - start]
        streams[i] = values
    return streams
