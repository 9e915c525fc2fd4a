"""Ablation study runner: baseline-plus-one-component-off experiments.

The enumerator expands a component registry into **baseline + N runs**
(one per component, that component's patch applied), each with a stable
deterministic run ID — the SHA-256 of the canonicalised (disabled
component set, applied patch, workload config) triple.  The same study
on the same workload therefore produces the same IDs in every process
and every commit, which makes ``BENCH_ablation.json`` diffable across
commits.

Every run measures two phases:

* **search phase** — a :class:`~repro.index.suffix_search.SuffixKnnEngine`
  driven through continuous steps on a seeded workload, collecting
  per-tier prune counts and simulated kernel seconds; skipped (recorded
  as ``null``) for components whose patch does not touch the search
  pipeline.  The final step is always cross-checked **bit-identically**
  against the full-DTW oracle
  (:func:`repro.index.reference.suffix_knn_reference`) — a search
  ablation that loses exactness fails the study.
* **serving phase** — a :class:`~repro.service.PredictionService` fleet
  serving ``forecast_all``/``ingest_many`` rounds, collecting wall and
  simulated latency, MAE against the revealed truth, and a bit-exact
  **forecast digest** (SHA-256 over every ``float.hex()`` mean/std).
  Components with ``claims_exact=True`` must reproduce the baseline
  digest; a divergence raises :class:`AblationExactnessError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..backend import make_backend
from ..backend.pool import BreakerConfig
from ..core.config import SMiLerConfig
from ..index.reference import suffix_knn_reference
from ..index.suffix_search import SuffixKnnEngine, SuffixSearchConfig
from ..service import PredictionService, ServiceConfig
from ..timeseries.datasets import make_dataset
from .registry import Component, default_registry, validate_registry

__all__ = [
    "AblationExactnessError",
    "AblationWorkload",
    "PlannedRun",
    "RunResult",
    "StudyResult",
    "RunSetup",
    "apply_patch",
    "check_exactness",
    "enumerate_runs",
    "run_id",
    "run_study",
]


class AblationExactnessError(RuntimeError):
    """An ablation changed answers it declared it would not change."""


@dataclass(frozen=True)
class AblationWorkload:
    """The seeded workload every run of one study executes.

    Everything that shapes the measured numbers lives here, because the
    run-ID hash covers this dataclass verbatim: change any field and
    every ID changes (results from different workloads never collide).
    """

    # -- serving phase ---------------------------------------------------
    dataset: str = "ROAD"
    n_sensors: int = 6
    n_backends: int = 2
    n_points: int = 1600
    steps: int = 16
    predictor: str = "ar"
    elv: tuple[int, ...] = (8, 16)
    ekv: tuple[int, ...] = (4, 8)
    rho: int = 2
    omega: int = 4
    # -- search phase ----------------------------------------------------
    search_points: int = 12_000
    search_steps: int = 8
    search_item_lengths: tuple[int, ...] = (32, 64, 96)
    search_k_max: int = 8
    search_omega: int = 16
    search_rho: int = 24
    # -- shared ----------------------------------------------------------
    seed: int = 2015
    backend: str = "simulated"

    def base_smiler_config(self) -> SMiLerConfig:
        """The baseline (everything-on) SMiLer configuration."""
        return SMiLerConfig(
            elv=self.elv, ekv=self.ekv, rho=self.rho, omega=self.omega,
            horizons=(1,), predictor=self.predictor,
        )

    def base_search_config(self) -> SuffixSearchConfig:
        """The baseline (everything-on) search-phase configuration."""
        return SuffixSearchConfig(
            item_lengths=self.search_item_lengths,
            k_max=self.search_k_max,
            omega=self.search_omega,
            rho=self.search_rho,
            margin=1,
        )


@dataclass(frozen=True)
class RunSetup:
    """Fully patched per-run configuration bundle."""

    smiler: SMiLerConfig
    search: SuffixSearchConfig
    service: ServiceConfig
    breaker: BreakerConfig
    backend_kind: str


def apply_patch(
    workload: AblationWorkload, component: Component | None
) -> RunSetup:
    """Baseline configs with one component's patch applied (none for the
    baseline run itself)."""
    smiler = workload.base_smiler_config()
    search = workload.base_search_config()
    service = ServiceConfig()
    breaker = BreakerConfig()
    backend_kind = workload.backend
    if component is None:
        return RunSetup(smiler, search, service, breaker, backend_kind)
    smiler_fields = {f.name for f in dataclasses.fields(SMiLerConfig)}
    for key, value in component.patch:
        prefix, _, field_name = key.partition(".")
        if prefix == "search":
            search = dataclasses.replace(search, **{field_name: value})
            # Search knobs mirrored on SMiLerConfig flow into the
            # serving phase too, so the ablation is end-to-end.
            if field_name in smiler_fields:
                smiler = dataclasses.replace(smiler, **{field_name: value})
        elif prefix == "smiler":
            smiler = dataclasses.replace(smiler, **{field_name: value})
        elif prefix == "service":
            service = dataclasses.replace(service, **{field_name: value})
        elif prefix == "breaker":
            breaker = dataclasses.replace(breaker, **{field_name: value})
        elif prefix == "backend":
            backend_kind = str(value)
        else:  # validate_component already rejects these
            raise ValueError(f"unknown patch target in {key!r}")
    return RunSetup(smiler, search, service, breaker, backend_kind)


# ---------------------------------------------------------------- run IDs
def _canonical(obj: object) -> object:
    """JSON-stable form: dataclasses to dicts, tuples to lists."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def run_id(
    workload: AblationWorkload, component: Component | None
) -> str:
    """Stable deterministic run ID.

    SHA-256 over the canonical JSON of (disabled component names, the
    applied patch, the workload config) — no process state, no clocks,
    no hash randomisation, so the same configuration yields the same ID
    in every process and across PRs.
    """
    payload = {
        "off": [] if component is None else [component.name],
        "patch": (
            [] if component is None
            else [[k, _canonical(v)] for k, v in component.patch]
        ),
        "workload": _canonical(workload),
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "abl-" + hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class PlannedRun:
    """One enumerated experiment: a run ID plus the component it ablates
    (``None`` = the baseline)."""

    run_id: str
    component: Component | None


def enumerate_runs(
    workload: AblationWorkload,
    components: tuple[Component, ...] | None = None,
) -> list[PlannedRun]:
    """Baseline plus exactly one run per component, IDs precomputed.

    Components are ordered by name so the enumeration (and therefore the
    emitted JSON) is deterministic regardless of registry order.
    """
    if components is None:
        components = default_registry()
    else:
        validate_registry(components)
    plans = [PlannedRun(run_id(workload, None), None)]
    for component in sorted(components, key=lambda c: c.name):
        plans.append(PlannedRun(run_id(workload, component), component))
    return plans


# ---------------------------------------------------------------- phases
def _run_search_phase(
    setup: RunSetup, workload: AblationWorkload
) -> dict:
    """Continuous suffix-kNN steps with per-tier accounting + oracle."""
    ds = make_dataset(
        workload.dataset, n_sensors=1,
        n_points=workload.search_points + workload.search_steps,
        test_points=workload.search_steps, seed=workload.seed,
    )
    history, tail = ds.sensor(0)
    engine = SuffixKnnEngine(
        history.values, setup.search, backend=make_backend(setup.backend_kind)
    )
    engine.search()  # warm-up: build indexes, seed threshold reuse
    engine.backend.reset_time()
    totals = {
        "candidates_total": 0, "candidates_unfiltered": 0,
        "candidates_verified": 0, "pruned_kim": 0, "pruned_window": 0,
    }
    sim_s = 0.0
    answers = None
    t0 = time.perf_counter()
    for point in tail:
        answers = engine.step(float(point))
        for a in answers.values():
            totals["candidates_total"] += a.candidates_total
            totals["candidates_unfiltered"] += a.candidates_unfiltered
            totals["candidates_verified"] += a.candidates_verified
            totals["pruned_kim"] += a.pruned_kim
            totals["pruned_window"] += a.pruned_window
            sim_s += a.verification_sim_s + a.selection_sim_s
    wall_s = time.perf_counter() - t0
    reference_exact = True
    assert answers is not None
    for d, answer in answers.items():
        ref_starts, ref_distances = suffix_knn_reference(
            engine.series, engine.item_query(d), setup.search.k_max,
            setup.search.rho, margin=setup.search.margin,
        )
        if not (
            np.array_equal(answer.starts, ref_starts)
            and np.array_equal(answer.distances, ref_distances)
        ):
            reference_exact = False
    total = max(totals["candidates_total"], 1)
    return {
        "wall_s": float(wall_s),
        "sim_s": float(sim_s),
        "candidates_total": totals["candidates_total"],
        "verified_rate": float(totals["candidates_verified"] / total),
        "unfiltered_rate": float(totals["candidates_unfiltered"] / total),
        "prune_rates": {
            "kim": float(totals["pruned_kim"] / total),
            "window": float(totals["pruned_window"] / total),
        },
        "reference_exact": bool(reference_exact),
    }


def _run_serving_phase(
    setup: RunSetup, workload: AblationWorkload
) -> dict:
    """Fleet serving rounds: latency, MAE and the bit-exact digest."""
    ds = make_dataset(
        workload.dataset, n_sensors=workload.n_sensors,
        n_points=workload.n_points + workload.steps,
        test_points=workload.steps, seed=workload.seed,
    )
    service = PredictionService(
        config=setup.smiler,
        backends=[
            make_backend(setup.backend_kind)
            for _ in range(workload.n_backends)
        ],
        min_history=min(256, workload.n_points),
        breaker=setup.breaker,
        service_config=setup.service,
    )
    tails: dict[str, np.ndarray] = {}
    try:
        for i in range(workload.n_sensors):
            history, tail = ds.sensor(i)
            sensor_id = f"s{i:03d}"
            service.register(sensor_id, history.values)
            tails[sensor_id] = tail
        service.reset_time()  # engine-aware: zeroes worker-held ledgers too
        digest = hashlib.sha256()
        abs_errors: list[float] = []
        latencies: list[float] = []
        degraded = 0
        t_start = time.perf_counter()
        for step in range(workload.steps):
            t0 = time.perf_counter()
            batch = service.forecast_all()
            latencies.append(time.perf_counter() - t0)
            if batch.errors:
                raise RuntimeError(
                    f"serving phase lost sensors {sorted(batch.errors)}"
                )
            for sensor_id in sorted(batch):
                forecast = batch[sensor_id]
                truth = float(tails[sensor_id][step])
                abs_errors.append(abs(forecast.mean - truth))
                degraded += int(forecast.degraded)
                digest.update(
                    f"{sensor_id}:{step}:{float(forecast.mean).hex()}:"
                    f"{float(forecast.std).hex()}\n".encode("ascii")
                )
            service.ingest_many(
                {sid: float(tails[sid][step]) for sid in tails}
            )
        wall_s = time.perf_counter() - t_start
    finally:
        service.close()  # flush worker-held ledgers/telemetry
    sim_seconds = [backend.elapsed_s for backend in service.backends]
    # Kernel launches over the shards; a backend with no cost model
    # (native) counts none, so the field is null rather than a false 0.
    costs = [getattr(backend, "cost", None) for backend in service.backends]
    launches = None if None in costs else sum(cost.launches for cost in costs)
    return {
        "backend": setup.backend_kind,
        "wall_s": float(wall_s),
        "p50_batch_s": float(np.percentile(np.asarray(latencies), 50)),
        "sim_s": float(sum(sim_seconds)),
        "sim_parallel_s": float(max(sim_seconds)),
        "launches": launches,
        "mae": float(np.mean(abs_errors)),
        "degraded_forecasts": int(degraded),
        "forecast_digest": digest.hexdigest(),
    }


# ----------------------------------------------------------------- study
@dataclass
class RunResult:
    """Measured metrics of one executed run."""

    run_id: str
    component: str | None
    layer: str | None
    claims_exact: bool
    search: dict | None
    serving: dict

    def as_dict(self) -> dict:
        """JSON-friendly record (the ``runs`` rows of the bench file)."""
        return {
            "run_id": self.run_id,
            "component": self.component,
            "layer": self.layer,
            "claims_exact": self.claims_exact,
            "search": self.search,
            "serving": self.serving,
        }


@dataclass
class StudyResult:
    """All runs of one study, baseline first."""

    workload: AblationWorkload
    runs: list[RunResult] = field(default_factory=list)

    @property
    def baseline(self) -> RunResult:
        """The everything-on run."""
        return self.runs[0]


def check_exactness(baseline: RunResult, run: RunResult) -> None:
    """Enforce the exactness contract of one ablation run.

    * The search oracle is unconditional: any run that executed the
      search phase must match the full-DTW reference scan bit-for-bit.
    * Forecast parity is conditional on the declaration: a
      ``claims_exact`` component must reproduce the baseline's forecast
      digest.  An ablation that changes answers without declaring it is
      a failed run, not a data point.
    """
    if run.search is not None and run.search["reference_exact"] is not True:
        raise AblationExactnessError(
            f"run {run.run_id} ({run.component}): search answers diverged "
            "from the full-DTW reference oracle"
        )
    if run.claims_exact and (
        run.serving["forecast_digest"] != baseline.serving["forecast_digest"]
    ):
        raise AblationExactnessError(
            f"run {run.run_id} ({run.component}): declared exact but served "
            f"different forecasts (digest "
            f"{run.serving['forecast_digest'][:12]} != baseline "
            f"{baseline.serving['forecast_digest'][:12]})"
        )


def _execute(plan: PlannedRun, workload: AblationWorkload) -> RunResult:
    setup = apply_patch(workload, plan.component)
    component = plan.component
    run_search = component is None or component.touches_search
    search = _run_search_phase(setup, workload) if run_search else None
    serving = _run_serving_phase(setup, workload)
    return RunResult(
        run_id=plan.run_id,
        component=None if component is None else component.name,
        layer=None if component is None else component.layer,
        claims_exact=True if component is None else component.claims_exact,
        search=search,
        serving=serving,
    )


def run_study(
    workload: AblationWorkload | None = None,
    components: tuple[Component, ...] | None = None,
    progress=None,
) -> StudyResult:
    """Execute baseline + one-off runs; enforce exactness per run."""
    workload = workload or AblationWorkload()
    plans = enumerate_runs(workload, components)
    study = StudyResult(workload=workload)
    for plan in plans:
        result = _execute(plan, workload)
        if plan.component is not None:
            check_exactness(study.baseline, result)
        study.runs.append(result)
        if progress is not None:
            name = result.component or "baseline"
            progress(
                f"{result.run_id}  {name:<18} "
                f"serving {result.serving['wall_s']:.2f}s wall, "
                f"mae {result.serving['mae']:.4f}"
            )
    return study
