"""A deployment-shaped facade: register sensors, ingest readings, serve
forecasts.

:class:`PredictionService` wraps the per-sensor SMiLer machinery in the
API an application backend actually calls:

* ``register(sensor_id, history)`` — admit a sensor (z-normalisation is
  handled internally; forecasts are served on the *raw* scale),
* ``ingest(sensor_id, value)`` / ``ingest_many({id: value})`` — new raw
  readings, singly or batched,
* ``forecast(sensor_id, horizon)`` — raw-scale mean, standard deviation
  and a central interval; ``forecast_all()`` serves the whole fleet,
  grouping work per backend,
* ``snapshot(directory)`` / ``restore(directory)`` — persist every
  sensor's state across restarts,
* ``status()`` — fleet-level diagnostics.

The service shards sensors over a :class:`~repro.backend.BackendPool`:
pass ``backends=[...]`` to spread the fleet across several devices
(Section 6.4.1's scale-out option 1) or a single
:class:`~repro.backend.NativeBackend` for a pure-NumPy serving fast
path.  Every admission — ``register``, ``restore`` — estimates the
sensor's memory first and routes through the pool's one greedy
placement policy, so an index is only ever built once, on the backend
that will host it.

Every serving entry point has the same shape: one request envelope
(:class:`_Request` — request id, start/end events, latency and SLO
accounting), validation, then lanes of declarative ops handed to the
engine's one execution method; a single ``forecast()`` / ``ingest()`` is
a one-op lane through that same path.

*How* lanes execute is delegated to a pluggable
:class:`~repro.exec.ExecutionEngine` (``ServiceConfig(engine=...)``, the
``REPRO_EXEC`` environment variable, or the CLI's ``--engine``): the
service decides the per-backend operation order, the engine decides
where it runs — inline on the calling thread (the default; one lane per
kernel domain, so native shards serve as one stacked group), on a
thread pool with **one worker lane per backend shard** (bounded by
``max_workers`` / ``--workers``), or on one
long-lived worker *process* per shard.  Each lane walks its
backends' sensors in the same order the sequential path would, so
per-backend kernel streams, simulated-time ledgers and fault-injection
tick sequences are identical — results are bit-identical to sequential
ones across every engine (same :class:`Forecast` floats, same
:attr:`ForecastBatch.errors`), pinned by ``tests/test_concurrency.py``
and ``tests/test_exec_parity.py``.  The execution model (what is
locked, what is lock-free, what crosses process boundaries) is
documented in ``docs/architecture.md``.
"""

from __future__ import annotations

import logging
import math
import pathlib
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.special import erfinv

from .backend.base import ComputeBackend, kernel_domain
from .backend.pool import BackendPool, BreakerConfig, Placement
from .baselines.autoregressive import fit_ar
from .core.config import SMiLerConfig
from .core.persistence import build_smiler, load_snapshot, save_smiler
from .core.predictor import GaussianPrediction, Outcome, checked, failed
from .core.scaleout import plan_lanes
from .core.smiler import SMiLer, absorb_many, group_rows, predict_lane
from .exec.base import (
    ENGINE_NAMES,
    ExecutionEngine,
    LaneTask,
    make_engine,
    resolve_engine_name,
)
from .index.suffix_search import search_many
from .obs import context as reqctx
from .obs import hooks as obs
from .obs.exposition import to_json
from .obs.tracing import Span
from .timeseries.series import ZNormStats
from .tolerances import NAIVE_VARIANCE

__all__ = [
    "Forecast",
    "ForecastBatch",
    "PredictionService",
    "SEARCH_ATTEMPTS",
    "ServiceConfig",
    "SnapshotCorruptionError",
]

logger = logging.getLogger(__name__)

#: Sensor ids become snapshot filenames, so they must be safe path
#: components: leading alphanumeric (rules out ``_norms`` and dotfiles),
#: then alphanumerics and ``. _ : -`` (no separators, no traversal).
_SENSOR_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._:-]*")


class SnapshotCorruptionError(RuntimeError):
    """A snapshot directory is internally inconsistent (orphan or
    hand-edited archives); the message names the offending file."""


#: How often one fused search runs before its members are left stale:
#: a transient kernel fault usually passes on the retry, and each failed
#: attempt is one more charge on the hosting breakers, so a second retry
#: would mostly trip them faster (see ``docs/robustness.md``).
SEARCH_ATTEMPTS = 2


@dataclass(frozen=True)
class ServiceConfig:
    """Serving-layer tuning, distinct from the per-sensor
    :class:`~repro.core.config.SMiLerConfig`.

    ``max_workers`` bounds the thread-pool lanes the ``"thread"`` engine
    fans ``forecast_all`` / ``ingest_many`` out over.  Work is sharded
    one lane per backend, so lanes beyond the pool size sit idle;
    ``None`` (the default) means 1.  It does not select the engine.

    ``engine`` picks the :class:`~repro.exec.ExecutionEngine` by name
    (``"inline"``, ``"thread"`` or ``"process"``).  ``None`` defers to
    the ``REPRO_EXEC`` environment variable and then to ``"inline"``.
    ``engine_timeout_s`` bounds how long the process engine
    waits on an unresponsive shard worker before declaring it hung and
    evacuating its sensors (local engines never time out).
    """

    max_workers: int | None = None
    engine: str | None = None
    engine_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError(
                f"max_workers must be positive, got {self.max_workers}"
            )
        if self.engine is not None and self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown execution engine {self.engine!r}; available: "
                f"{ENGINE_NAMES}"
            )
        if self.engine_timeout_s <= 0.0:
            raise ValueError(
                f"engine_timeout_s must be positive, got {self.engine_timeout_s}"
            )

    def resolved_engine(self) -> str:
        """The effective engine name: explicit value, else the
        ``REPRO_EXEC`` environment variable, else ``"inline"``."""
        return resolve_engine_name(self.engine)


def _validate_sensor_id(sensor_id: str) -> str:
    if not isinstance(sensor_id, str) or not _SENSOR_ID_RE.fullmatch(sensor_id):
        raise ValueError(
            f"invalid sensor id {sensor_id!r}: ids must match "
            f"{_SENSOR_ID_RE.pattern!r} (they become snapshot filenames)"
        )
    return sensor_id


@dataclass(frozen=True)
class Forecast:
    """A raw-scale forecast for one sensor at one horizon.

    ``source`` names the degradation-ladder rung that produced it
    (``"ensemble"`` is the full system); ``degraded`` is True for any
    rung below the top.  ``request_id`` is the serving request that
    produced the forecast — telemetry identity, excluded from equality
    so the bit-identical concurrency contract compares *forecasts*, not
    which request happened to compute them.
    """

    sensor_id: str
    horizon: int
    mean: float
    std: float
    interval_low: float
    interval_high: float
    level: float
    source: str = "ensemble"
    degraded: bool = False
    request_id: str = field(default="", compare=False)

    def as_dict(self) -> dict:
        """JSON-friendly record."""
        return {
            "sensor_id": self.sensor_id,
            "horizon": self.horizon,
            "mean": self.mean,
            "std": self.std,
            "interval": [self.interval_low, self.interval_high],
            "level": self.level,
            "source": self.source,
            "degraded": self.degraded,
            "request_id": self.request_id,
        }


class ForecastBatch(dict):
    """``sensor_id -> Forecast`` mapping with a per-sensor error
    side-channel.

    Behaves exactly like the plain dict :meth:`PredictionService.forecast_all`
    used to return; sensors whose forecast raised land in :attr:`errors`
    (``sensor_id -> exception``) instead of silently sinking the rest of
    the batch."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.errors: dict[str, Exception] = {}


class _Request:
    """The one request envelope every serving entry point runs inside.

    Opens the :mod:`repro.obs.context` scope and — when this call minted
    the request rather than adopting an enclosing one — emits the
    start/end event pair with latency and outcome (an exception leaving
    the block is ``ok=False``).  ``n_items`` / ``n_errors`` may be
    updated inside the block; the end event reports their final values.
    """

    __slots__ = ("entry_point", "n_items", "n_errors", "scope", "_t0")

    def __init__(self, entry_point: str, n_items: int = 1) -> None:
        self.entry_point = entry_point
        self.n_items = n_items
        self.n_errors = 0

    def __enter__(self) -> "_Request":
        self.scope = reqctx.begin_request(self.entry_point).__enter__()
        self._t0 = time.perf_counter()
        if self.scope.minted:
            obs.observe_request_start(
                self.entry_point, self.scope.request_id, n_items=self.n_items
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if self.scope.minted:
                obs.observe_request_end(
                    self.entry_point, self.scope.request_id,
                    time.perf_counter() - self._t0, ok=exc_type is None,
                    n_items=self.n_items, n_errors=self.n_errors,
                )
        finally:
            self.scope.__exit__(exc_type, exc, tb)
        return False


class PredictionService:
    """Multi-sensor forecast service sharded over a backend pool."""

    #: Whether a breaker tripped mid-request evacuates its backend there
    #: and then.  A shard worker turns it off: its placements stay frozen
    #: for its generation, and the parent evacuates at the batch boundary.
    _failover = True

    def __init__(
        self,
        config: SMiLerConfig | None = None,
        backends: ComputeBackend | Iterable[object] | None = None,
        min_history: int = 256,
        breaker: BreakerConfig | None = None,
        service_config: ServiceConfig | None = None,
    ) -> None:
        if min_history <= 0:
            raise ValueError(f"min_history must be positive, got {min_history}")
        self.config = config or SMiLerConfig()
        if backends is None:
            backends = [None]
        elif isinstance(backends, (list, tuple)):
            backends = list(backends)
        else:
            backends = [backends]
        self._pool = BackendPool(backends, breaker=breaker)
        self.service_config = service_config or ServiceConfig()
        #: Effective thread-lane bound.
        self.max_workers = self.service_config.max_workers or 1
        self.min_history = min_history
        self._sensors: dict[str, SMiLer] = {}
        self._norms: dict[str, ZNormStats] = {}
        self._placements: dict[str, Placement] = {}
        self._last_trace: Span | None = None
        # Serializes fleet-membership mutations (register / deregister /
        # restore / evacuate) against each other; per-sensor serving work
        # needs no service-level lock because each backend shard is
        # walked by exactly one lane.  Lock order: an engine's operation
        # lock (``mutating()``) is always taken *before* this one.
        self._admission_lock = threading.RLock()
        self._engine: ExecutionEngine = make_engine(
            self.service_config.resolved_engine(), self
        )

    # ------------------------------------------------------------- backends
    @property
    def backends(self) -> list[ComputeBackend]:
        """The pool's backends, in placement-index order."""
        return self._pool.backends

    @property
    def engine(self) -> ExecutionEngine:
        """The execution engine serving this service's lanes."""
        return self._engine

    def placement_of(self, sensor_id: str) -> int:
        """Index of the backend hosting a sensor."""
        self._engine.refresh()
        self._require(sensor_id)
        return self._placements[sensor_id].backend_index

    def sensors_per_backend(self) -> list[int]:
        """Sensor count hosted on each backend."""
        with self._admission_lock:
            counts = [0] * len(self._pool)
            for placement in self._placements.values():
                counts[placement.backend_index] += 1
            return counts

    def _admit(
        self,
        sensor_id: str,
        n_points: int,
        config: SMiLerConfig,
        build: Callable[[ComputeBackend], SMiLer],
    ) -> SMiLer:
        """The one admission path: estimate, place, build once, record.

        The analytic estimate lets the pool pick a backend *before* the
        index is built, so construction happens exactly once, on the
        backend that hosts the sensor.  The estimate is exact at
        admission — it *is* ``SMiLer.memory_bytes()`` for a series of
        ``n_points`` — and does not follow the index as ingest grows it.
        """
        estimate = SMiLer.estimate_memory_bytes(n_points, config)
        placement = self._pool.allocate(estimate, label=sensor_id)
        try:
            smiler = build(self._pool.backend(placement))
        except Exception:
            # Best-effort release: a backend that just died mid-admission
            # may refuse it.
            try:
                self._pool.release(placement)
            except Exception:
                logger.debug(
                    "could not release %r after failed admission of %s",
                    placement, sensor_id, exc_info=True,
                )
            raise
        self._sensors[sensor_id] = smiler
        self._placements[sensor_id] = placement
        return smiler

    def evacuate(self, backend_index: int) -> list[str]:
        """Move every sensor off one backend onto healthy peers.

        The backend's circuit breaker is forced open first, so the
        re-admissions (the same estimate-first path as :meth:`register`,
        with the index rebuilt from each sensor's accrued history via
        :meth:`SMiLer.rebind`) land elsewhere.  A sensor whose
        re-admission fails keeps its old placement — it stays served by
        the degradation ladder instead of vanishing.  Returns the ids of
        the sensors that actually moved.
        """
        if not 0 <= backend_index < len(self._pool):
            raise IndexError(
                f"backend index {backend_index} out of range for a pool of "
                f"{len(self._pool)}"
            )
        with self._engine.mutating():
            with self._admission_lock:
                return self._evacuate_locked(backend_index)

    def _evacuate_locked(self, backend_index: int) -> list[str]:
        self._pool.mark_unhealthy(backend_index)
        stranded = sorted(
            sid for sid, placement in self._placements.items()
            if placement.backend_index == backend_index
        )
        moved = [
            sensor_id for sensor_id in stranded
            if self._readmit(
                sensor_id, self._sensors[sensor_id].series.size,
                self._sensors[sensor_id].rebind,
            )
        ]
        logger.info(
            "evacuated %d/%d sensors off backend %d",
            len(moved), len(stranded), backend_index,
        )
        obs.observe_evacuation(backend_index, len(moved))
        return moved

    def _fail_over(self, backend_index: int) -> bool:
        """The one failover rule, applied after a failure was charged to
        a backend's breaker: when failover is on, the pool has peers and
        the breaker is now open, evacuate the backend.  Returns whether
        it did."""
        if (
            self._failover
            and len(self._pool) > 1
            and self._pool.state(backend_index) == "open"
        ):
            self.evacuate(backend_index)
            return True
        return False

    def _readmit(
        self,
        sensor_id: str,
        n_points: int,
        build: Callable[[ComputeBackend], SMiLer],
    ) -> bool:
        """Re-admit one sensor stranded on an unhealthy backend (the same
        estimate-first path as :meth:`register`) and free its old
        placement.  Returns whether it moved: a sensor whose re-admission
        fails keeps its old placement and stays served by the
        degradation ladder.  Caller holds the admission lock."""
        old = self._placements[sensor_id]
        try:
            self._admit(
                sensor_id, n_points, self._sensors[sensor_id].config, build
            )
        except Exception:
            logger.warning(
                "re-admission of sensor %s off backend %d failed; it stays "
                "there (served degraded)",
                sensor_id, old.backend_index, exc_info=True,
            )
            return False
        try:
            self._pool.release(old)
        except Exception:
            logger.debug(
                "could not free %s on unhealthy backend %d",
                sensor_id, old.backend_index, exc_info=True,
            )
        return True

    # ------------------------------------------------------------ lifecycle
    def register(self, sensor_id: str, history: np.ndarray) -> None:
        """Admit a sensor with its raw history."""
        _validate_sensor_id(sensor_id)
        with self._engine.mutating():
            with self._admission_lock:
                self._register_locked(sensor_id, history)

    def _register_locked(self, sensor_id: str, history: np.ndarray) -> None:
        if sensor_id in self._sensors:
            raise ValueError(f"sensor {sensor_id!r} is already registered")
        history = np.asarray(history, dtype=np.float64)
        if history.size < self.min_history:
            raise ValueError(
                f"sensor {sensor_id!r} needs at least {self.min_history} "
                f"historical points, got {history.size}"
            )
        if not np.isfinite(history).all():
            raise ValueError(
                f"sensor {sensor_id!r} history contains non-finite values; "
                "repair with repro.timeseries.fill_missing first"
            )
        stats = ZNormStats.of(history)
        normalised = stats.apply(history)
        smiler = self._admit(
            sensor_id,
            normalised.size,
            self.config,
            lambda backend: SMiLer(
                normalised, self.config, backend=backend, sensor_id=sensor_id
            ),
        )
        self._norms[sensor_id] = stats
        logger.debug(
            "registered sensor %s: %d history points, %d index bytes on "
            "backend %d",
            sensor_id, history.size, smiler.memory_bytes(),
            self._placements[sensor_id].backend_index,
        )

    def deregister(self, sensor_id: str) -> None:
        """Remove a sensor from the service and free its device memory."""
        with self._engine.mutating():
            with self._admission_lock:
                self._require(sensor_id)
                self._drop(sensor_id)
        logger.debug("deregistered sensor %s", sensor_id)

    def _drop(self, sensor_id: str) -> None:
        """Forget one admitted sensor and free its reservation.  Caller
        holds the admission lock."""
        del self._sensors[sensor_id]
        del self._norms[sensor_id]
        self._pool.release(self._placements.pop(sensor_id))

    @property
    def sensor_ids(self) -> list[str]:
        """Registered sensor identifiers, sorted."""
        return sorted(self._sensors)

    def sensor(self, sensor_id: str) -> SMiLer:
        """The SMiLer instance serving one sensor.

        Engines that move state off-process sync it back first
        (:meth:`repro.exec.ExecutionEngine.refresh`), so the returned
        object always reflects every reading served so far.
        """
        self._engine.refresh()
        return self._require(sensor_id)

    def _require(self, sensor_id: str) -> SMiLer:
        if sensor_id not in self._sensors:
            raise KeyError(f"unknown sensor {sensor_id!r}")
        return self._sensors[sensor_id]

    # --------------------------------------------------------------- serving
    def _observe_lane(self, pairs: Sequence[tuple[str, float]]) -> None:
        """Feed one lane's validated readings, z-normalised by
        :meth:`_checked_reading`; absorb backend failures.

        Every reading is absorbed *before* any faultable
        backend op — per sensor the auto-tune, per group one stacked
        index step (:func:`~repro.core.smiler.absorb_many`) — so a
        failure here never loses data: it only leaves kNN answers stale
        (the next forecast re-searches, on a healthy backend after
        failover).  The searches then run fused, one group per kernel
        domain and search configuration (:meth:`_groups`); a single
        ``ingest()`` is a lane of one.
        """
        sensor_ids = [sensor_id for sensor_id, _ in pairs]
        values = [value for _, value in pairs]
        groups = [
            ([sensor_ids[at] for at in members], [values[at] for at in members])
            for members in self._groups(sensor_ids)
        ]
        for members, readings in groups:
            absorb_many([self._sensors[sid] for sid in members], readings)
        for members, _ in groups:
            if self._search_group(members, set()) is None:
                self._record_successes(members)

    def _groups(self, sensor_ids: list[str], *keys: list) -> list[list[int]]:
        """The positions of ``sensor_ids`` that serve as one stacked
        group: one kernel domain
        (:func:`~repro.backend.base.kernel_domain`) of the backend
        hosting each now, one search configuration (by equality), and
        equal ``keys`` entries.  Usually the whole lane, found without
        hashing anything."""
        domains = [kernel_domain(backend) for backend in self._pool.backends]
        return group_rows(
            [domains[self._placements[sid].backend_index] for sid in sensor_ids],
            [self._sensors[sid].engine.config for sid in sensor_ids],
            *keys,
        )

    def _homes(self, sensor_ids: Iterable[str]) -> dict[int, int]:
        """How many of ``sensor_ids`` each hosting backend holds: a fused
        group's breakers, in first-member order."""
        homes = [self._placements[sid].backend_index for sid in sensor_ids]
        return {index: homes.count(index) for index in dict.fromkeys(homes)}

    def _record_successes(self, served: Iterable[str]) -> None:
        """One success per served sensor on its own backend's breaker."""
        for index, count in self._homes(served).items():
            self._pool.record_success(index, count)

    def _search_group(
        self, sensor_ids: list[str], evacuated: set[int]
    ) -> Exception | None:
        """One fused search for sensors of one kernel domain, retried in
        place; returns ``None`` once the answers are installed, else the
        last attempt's error with the sensors left stale.

        A fused launch fails as a group, so each failed attempt is *one*
        failure on the breaker of every backend hosting a member.  Once
        one trips that backend is evacuated — once per request:
        ``evacuated`` holds the backends this request already moved off,
        and gains it — and the attempts end: its sensors sit on other
        backends now, their answers invalidated.  Success is the
        caller's to record, one per sensor served on its own backend
        (:meth:`_record_successes`)."""
        smilers = [self._sensors[sid] for sid in sensor_ids]
        homes = self._homes(sensor_ids)
        error: Exception | None = None
        for _ in range(SEARCH_ATTEMPTS):
            try:
                found = search_many([smiler.engine for smiler in smilers])
            except Exception as failure:
                # Outlives this block, so without its traceback: that
                # holds this frame, and through it the lane's stacked
                # index, in a cycle only the collector can free.
                error = failure.with_traceback(None)
                for index in homes:
                    self._pool.record_failure(index)
                logger.warning(
                    "fused search failed for %d sensors on backends %s "
                    "(readings retained, answers invalidated): %s",
                    len(smilers), list(homes), failure,
                )
                # The guard comes first: asking the pool for a breaker's
                # state advances its cool-down.
                tripped = [
                    index for index in homes
                    if index not in evacuated and self._fail_over(index)
                ]
                if tripped:
                    evacuated.update(tripped)
                    break
            else:
                for smiler, answers in zip(smilers, found):
                    smiler.install(answers)
                return None
        return error

    def _checked_reading(self, sensor_id: str, value: float) -> float:
        """The raw ``value`` z-normalised, the one time a reading is: the
        ingest ops carry it from here."""
        self._require(sensor_id)
        value = float(value)
        # A finite reading can still overflow once normalised (1e308
        # against a small std): either way the series would gain inf.
        if not math.isfinite(z := self._norms[sensor_id].apply(value)):
            raise ValueError(
                f"non-finite reading {value!r} for {sensor_id!r}, raw or "
                "normalised; impute before ingest"
            )
        return z

    def ingest(self, sensor_id: str, value: float) -> None:
        """Feed one new raw reading (auto-tunes and advances the index)."""
        with _Request("ingest") as request:
            value = self._checked_reading(sensor_id, value)
            self._run_single(request.scope, ("ingest", sensor_id, value))

    def ingest_many(self, readings: Mapping[str, float]) -> None:
        """Feed one batch of raw readings, one per sensor.

        The whole batch is validated before any sensor advances, so a bad
        reading leaves every stream untouched (no half-applied ticks).
        The validated batch fans out one task per backend shard to the
        configured engine, which runs them as lanes (on the inline
        engine, one per kernel domain); each lane absorbs its readings in
        batch order and then searches them as one group
        (:meth:`_observe_lane`), so every backend sees the same
        operation sequence on every engine and the end state is
        identical.
        """
        with _Request("ingest_many", n_items=len(readings)) as request:
            checked = {
                sensor_id: self._checked_reading(sensor_id, value)
                for sensor_id, value in readings.items()
            }
            tasks = self._plan_tasks("ingest", checked)
            self._engine.run_batch("ingest_many", request.scope, tasks)

    def _plan_tasks(self, kind: str, values: Mapping[str, object]) -> list[LaneTask]:
        """Partition the sensors of ``values`` into one :class:`LaneTask`
        per hosting backend, one ``(kind, sensor_id, value)`` op each,
        keeping the given order within each lane (a snapshot: mid-batch
        failover may re-place a sensor, but its lane assignment is
        decided here, exactly as the sequential path decides its
        grouping up front)."""
        with self._admission_lock:
            placements = {
                sid: self._placements[sid].backend_index for sid in values
            }
        return [
            LaneTask(
                plan=plan,
                ops=tuple([(kind, sid, values[sid]) for sid in plan.sensor_ids]),
            )
            for plan in plan_lanes(placements, values)
        ]

    def _run_single(
        self, scope: reqctx.RequestScope, op: tuple
    ) -> "tuple | Exception | None":
        """Serve one validated op as a one-op lane through the engine's
        one execution method; returns the op's outcome."""
        kind, sensor_id, value = op
        tasks = self._plan_tasks(kind, {sensor_id: value})
        [[outcome]] = self._engine.run_batch(kind, scope, tasks)
        return outcome

    def _resolve_horizon(self, horizon: int | None) -> int:
        if horizon is None:
            return min(self.config.horizons)
        if horizon <= 0:
            # Explicit None-check above: `horizon or default` would
            # silently remap a (buggy) horizon=0 to the default.
            raise ValueError(f"horizon must be positive, got {horizon}")
        if horizon not in self.config.horizons:
            raise KeyError(
                f"horizon {horizon} not configured; available: "
                f"{self.config.horizons}"
            )
        return horizon

    def _refresh_group(
        self, sensor_ids: list[str], evacuated: set[int]
    ) -> dict[str, Exception]:
        """Re-search a forecast group's stale members together — one
        fused search per hosting kernel domain, through the retry loop
        of :meth:`_search_group`.  After a failover the members regroup
        where they sit now — the re-homed where they landed — and get a
        fresh budget.  Returns the error of every member still stale
        when the attempts ran out."""
        errors: dict[str, Exception] = {}
        for group in self._groups(sensor_ids):
            members = [sensor_ids[at] for at in group]
            moved_off = len(evacuated)
            error = self._search_group(members, evacuated)
            if error is not None:
                errors.update(
                    self._refresh_group(members, evacuated)
                    if len(evacuated) > moved_off
                    else dict.fromkeys(members, error)
                )
        return errors

    def _ensemble_rung(self, sensor_ids: list[str], horizon: int) -> Outcome:
        """The ladder's top rung for one forecast group, stacked: stale
        members re-searched together, then one
        :func:`~repro.core.smiler.predict_lane` per hosting kernel domain
        (a member evacuated mid-request is served where it landed).
        Returns ``(mean [S], variance [S], {position: exception})`` in
        normalised space: a served row is validated and one success on
        its backend's breaker; an error is what kept its sensor off the
        rung (still stale, a failed row, an unusable Gaussian), and that
        sensor walks the lower rungs alone."""
        smilers = [self._sensors[sid] for sid in sensor_ids]
        stale = [sid for sid, smiler in zip(sensor_ids, smilers) if smiler._answers is None]
        errors: dict[int, Exception] = {}
        groups = [list(range(len(sensor_ids)))]
        if stale:
            refused = self._refresh_group(stale, set())
            errors = {
                at: refused[sid] for at, sid in enumerate(sensor_ids) if sid in refused
            }
            fresh = [at for at in groups[0] if at not in errors]
            # Only a stale member can have moved since the lane was
            # grouped (a rebound sensor has no answers): regroup.
            groups = [
                [fresh[at] for at in group]
                for group in self._groups([sensor_ids[at] for at in fresh])
            ]
        served = []
        for members in groups:
            lane = smilers if len(members) == len(smilers) else [
                smilers[at] for at in members
            ]
            try:
                outcome = predict_lane(lane, horizon)
            except Exception as error:  # noqa: BLE001 - the members descend
                outcome = failed(len(members), error)
            # A rung's output must be a usable Gaussian: NaN means or
            # non-positive variances are failures, never served.
            mean, variance, failures = checked(*outcome)
            for row, error in failures.items():
                errors[members[row]] = error.with_traceback(None)
                logger.debug(
                    "ensemble rung failed for %s on backend %d: %s",
                    sensor_ids[members[row]],
                    self._placements[sensor_ids[members[row]]].backend_index,
                    error,
                )
            self._record_successes([
                sensor_ids[at] for row, at in enumerate(members)
                if row not in failures
            ])
            served.append((members, mean, variance))
        if len(served) == 1 and len(served[0][0]) == len(sensor_ids):
            return served[0][1], served[0][2], errors
        mean, variance = np.zeros((2, len(sensor_ids)))
        for members, group_mean, group_variance in served:
            mean[members], variance[members] = group_mean, group_variance
        return mean, variance, errors

    def _predict_resilient(
        self, sensor_id: str, horizon: int
    ) -> tuple[float, float, str]:
        """The ladder below the (stacked) ensemble rung for one sensor,
        best rung first: ``reduced`` (the smallest ensemble cell, on the
        cached kNN answers), ``ar`` (a host-side fit, no backend) and
        ``naive`` (the last value, which cannot fail).  Returns ``(mean,
        variance, source)`` in normalised space."""
        try:
            prediction = self._sensors[sensor_id].predict_reduced(horizon)
            return prediction.mean, prediction.variance, "reduced"
        except Exception as error:
            logger.debug("reduced rung failed for %s: %s", sensor_id, error)
        try:
            mean, variance = self._ar_fallback(sensor_id, horizon)
            GaussianPrediction(mean, variance)  # usable, or raises
            return mean, variance, "ar"
        except Exception as error:
            logger.debug("ar rung failed for %s: %s", sensor_id, error)
        return (*self._naive_fallback(sensor_id, horizon), "naive")

    def _ar_fallback(self, sensor_id: str, horizon: int) -> tuple[float, float]:
        """Host-side AR(d) on the recent normalised history — no backend
        involved, so it survives any compute-layer failure."""
        series = np.asarray(self._sensors[sensor_id].series, dtype=np.float64)
        tail = series[-512:]
        order = min(min(self.config.elv), max(2, tail.size // 4))
        model = fit_ar(tail, order)
        return model.forecast(tail, horizon)

    def _naive_fallback(self, sensor_id: str, horizon: int) -> tuple[float, float]:
        """Last-value forecast with a random-walk variance; cannot fail."""
        series = np.asarray(self._sensors[sensor_id].series, dtype=np.float64)
        mean = float(series[-1])
        diffs = np.diff(series[-65:])
        variance = float(np.mean(diffs**2)) * horizon if diffs.size else 0.0
        if not np.isfinite(variance) or variance <= 0.0:
            variance = NAIVE_VARIANCE
        return mean, variance

    def forecast(
        self, sensor_id: str, horizon: int | None = None, level: float = 0.95
    ) -> Forecast:
        """Raw-scale forecast with a central predictive interval.

        Failures descend the degradation ladder (``ensemble`` →
        ``reduced`` → ``ar`` → ``naive``) instead of propagating: a
        failed search is retried once (:data:`SEARCH_ATTEMPTS`), a tripped
        backend is evacuated mid-request (when the pool has healthy
        peers), and the served rung is visible on
        :attr:`Forecast.source` / :attr:`Forecast.degraded`, in the
        ``degraded`` event and in ``smiler_forecasts_total``'s ``source``.
        """
        z = self._quantile(level)
        self._require(sensor_id)
        horizon = self._resolve_horizon(horizon)
        with _Request("forecast") as request:
            row = self._run_single(
                request.scope, ("forecast", sensor_id, horizon)
            )
            if isinstance(row, Exception):
                raise row
            [forecast] = self._forecasts(
                [sensor_id], horizon, [row], level, z, request.scope.request_id
            )
            return forecast

    @staticmethod
    def _quantile(level: float) -> float:
        """The ``z``-quantile of a central interval at ``level``,
        validated: computed once per request."""
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        return float(np.sqrt(2.0) * erfinv(level))

    def _forecasts(
        self, sensor_ids: list[str], horizon: int, rows: list[tuple],
        level: float, z: float, request_id: str,
    ) -> list[Forecast]:
        """The one place lane rows become :class:`Forecast` objects, at
        the service boundary: each served row ``(z_mean, z_variance,
        source)`` de-normalised with its sensor's stats (every rung
        validated ``z_variance > 0``, and ``std > 0``) and stamped with
        the request id.  Per sensor by :class:`ZNormStats`, the one home
        of the arithmetic: a stacked form would need ``np.float_power``
        for ``std ** 2`` (NumPy's square is not Python's ``pow`` to the
        bit) and fixed NumPy calls a lane of one does not pay now."""
        forecasts = []
        for sensor_id, (z_mean, z_variance, source) in zip(sensor_ids, rows):
            stats = self._norms[sensor_id]
            mean = stats.invert(z_mean)
            std = math.sqrt(stats.invert_variance(z_variance))
            forecasts.append(Forecast(
                sensor_id, horizon, mean, std, mean - z * std, mean + z * std,
                level, source, source != "ensemble", request_id,
            ))
        return forecasts

    def _forecast_lane(self, ops: Sequence[tuple]) -> list:
        """Serve one lane's run of validated ``forecast`` ops (run by
        :func:`repro.exec.base.execute_ops`, in-process or inside a shard
        worker, under the request context its lane adopted); one
        normalised row ``(z_mean, z_variance, source)`` — or the
        exception that stopped it — per op, in order.  The caller turns
        rows into :class:`Forecast` objects (:meth:`_forecasts`).

        The unit is a *group*: the ops that share a hosting kernel
        domain, a search configuration and a horizon (:meth:`_groups`:
        usually the whole lane, as the engine planned it).  The
        ``ensemble`` rung serves the group stacked, as arrays
        (:meth:`_ensemble_rung`); whoever it did not serve walks the
        lower rungs alone (:meth:`_finish_row`), in op order.  A single
        ``forecast()`` is a lane of one.
        """
        request = reqctx.current_request()
        sensor_ids = [sensor_id for _, sensor_id, _ in ops]
        horizons = [horizon for _, _, horizon in ops]
        outcomes: list = [None] * len(ops)
        for group in self._groups(sensor_ids, horizons):
            whole = len(group) == len(ops)
            members = sensor_ids if whole else [sensor_ids[at] for at in group]
            horizon = horizons[group[0]]
            first = self._placements[members[0]].backend_index
            with obs.span("forecast", self._pool.backends[first]) as sp:
                if sp is not None:
                    sp.attrs["n_sensors"] = len(members)
                    if len(members) == 1:
                        sp.attrs["sensor_id"] = members[0]
                    sp.attrs["horizon"] = horizon
                    sp.attrs["request_id"] = request.request_id
                mean, variance, errors = self._ensemble_rung(members, horizon)
                rows = list(zip(
                    mean.tolist(), variance.tolist(), ["ensemble"] * len(members)
                ))
                for at in sorted(errors):
                    rows[at] = self._finish_row(members[at], horizon)
                obs.observe_forecasts(horizon, rows)
            if whole:
                outcomes = rows
            else:
                for at, row in zip(group, rows):
                    outcomes[at] = row
            if sp is not None and request.entry_point == "forecast":
                # A single forecast's own span is its request's trace; in
                # a batch the engine points this at the connected root
                # span after the lanes join.
                self._last_trace = sp
        return outcomes

    def _finish_row(
        self, sensor_id: str, horizon: int
    ) -> "tuple[float, float, str] | Exception":
        """One forecast op the stacked rung did not serve: the lower
        rungs, then its normalised row — or the exception the ladder
        raised."""
        try:
            with obs.span("ladder", self._sensors[sensor_id].backend) as sp:
                if sp is not None:
                    sp.attrs["sensor_id"] = sensor_id
                    sp.attrs["horizon"] = horizon
                served = self._predict_resilient(sensor_id, horizon)
                if sp is not None:
                    sp.attrs["source"] = served[2]
        except Exception as failure:  # noqa: BLE001 - per-sensor side-channel
            return failure
        obs.observe_degraded_forecast(sensor_id, served[2])
        logger.info(
            "sensor %s served degraded (%s rung) at horizon %d",
            sensor_id, served[2], horizon,
        )
        return served

    def forecast_all(
        self, horizon: int | None = None, level: float = 0.95
    ) -> ForecastBatch:
        """Forecasts for every registered sensor, grouped per lane.

        Sensors sharing a lane are served together, as one forecast
        lane (:meth:`_forecast_lane`: stale members re-searched as one
        group, the ensemble's cells stacked across the lane's sensors);
        the returned mapping is sorted by sensor id.
        One sensor's failure no longer aborts the batch: completed
        forecasts are returned and the failure lands in
        :attr:`ForecastBatch.errors`.

        The per-backend tasks run as lanes on the configured engine (on
        the inline engine, one per kernel domain).  Each lane preserves
        the sequential path's per-backend sensor order, so kernel
        dispatch, simulated-time attribution and fault-injection ticks
        are identical per backend and the batch — forecasts *and*
        errors — is bit-identical to an inline run on every engine.
        """
        z = self._quantile(level)
        horizon = self._resolve_horizon(horizon)  # reject bad ones up front
        sensor_ids = self.sensor_ids
        with _Request("forecast_all", n_items=len(sensor_ids)) as request:
            tasks = self._plan_tasks(
                "forecast", dict.fromkeys(sensor_ids, horizon)
            )
            lane_outcomes = self._engine.run_batch(
                "forecast_all", request.scope, tasks
            )
            served, rows, errors = [], [], {}
            for task, outcomes in zip(tasks, lane_outcomes):
                for sensor_id, row in zip(task.plan.sensor_ids, outcomes):
                    if isinstance(row, Exception):
                        logger.warning(
                            "forecast_all: sensor %s failed: %s",
                            sensor_id, row,
                        )
                        errors[sensor_id] = row
                    else:
                        served.append(sensor_id)
                        rows.append(row)
            forecasts = self._forecasts(
                served, horizon, rows, level, z, request.scope.request_id
            )
            batch = ForecastBatch(sorted(zip(served, forecasts)))
            batch.errors = dict(sorted(errors.items()))
            request.n_errors = len(batch.errors)
            return batch

    # ------------------------------------------------------------ snapshots
    def snapshot(self, directory) -> list[pathlib.Path]:
        """Persist every sensor's state into ``directory``; returns the
        written paths.  A ``<sensor id>.npz`` there that this snapshot did
        not write (an earlier snapshot's) is removed: the directory
        restores to exactly this snapshot's sensors."""
        with self._engine.mutating():
            return self._snapshot_synced(directory)

    def _snapshot_synced(self, directory) -> list[pathlib.Path]:
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for sensor_id, smiler in self._sensors.items():
            # Ids are validated at register(); re-check here so a future
            # bypass can never write outside the snapshot directory.
            _validate_sensor_id(sensor_id)
            path = directory / f"{sensor_id}.npz"
            save_smiler(smiler, path)
            paths.append(path)
        # Normalisation stats ride along in one extra archive.
        norms = {
            f"{sid}_mean": np.array([st.mean])
            for sid, st in self._norms.items()
        }
        norms.update(
            {f"{sid}_std": np.array([st.std]) for sid, st in self._norms.items()}
        )
        np.savez(directory / "_norms.npz", **norms)
        paths.append(directory / "_norms.npz")
        for path in directory.glob("*.npz"):
            if path not in paths and _SENSOR_ID_RE.fullmatch(path.stem):
                path.unlink()
        return paths

    def restore(self, directory) -> None:
        """Load every snapshotted sensor into this (empty) service.

        Every archive is parsed and checked before any is admitted (a
        corrupt one admits nothing); each then takes :meth:`register`'s
        admission path, and a failed one releases those admitted before it.
        """
        with _Request("restore") as request:
            try:
                with self._engine.mutating():
                    with self._admission_lock:
                        self._restore_locked(directory)
            finally:
                request.n_items = len(self._sensors)

    def _restore_locked(self, directory) -> None:
        if self._sensors:
            raise RuntimeError("restore() requires an empty service")
        directory = pathlib.Path(directory)
        norm_path = directory / "_norms.npz"
        if not norm_path.exists():
            raise FileNotFoundError(f"no snapshot at {directory}")
        with np.load(norm_path) as archive:
            raw = {name: float(archive[name][0]) for name in archive.files}
        checked = []
        for path in sorted(directory.glob("*.npz")):
            if path.name == "_norms.npz":
                continue
            try:
                snapshot = load_snapshot(path)
            except SnapshotCorruptionError:
                raise
            except Exception as error:
                raise SnapshotCorruptionError(
                    f"archive {path.name!r} cannot be parsed as a sensor "
                    f"snapshot: {error}"
                ) from error
            series = np.asarray(snapshot.series)
            if series.ndim != 1 or series.size == 0:
                raise SnapshotCorruptionError(
                    f"archive {path.name!r} holds a series of shape "
                    f"{series.shape}; expected a non-empty 1-d array "
                    "— hand-edited snapshot?"
                )
            sensor_id = snapshot.sensor_id
            if not _SENSOR_ID_RE.fullmatch(sensor_id):
                raise SnapshotCorruptionError(
                    f"archive {path.name!r} declares invalid sensor id "
                    f"{sensor_id!r}"
                )
            mean_key, std_key = f"{sensor_id}_mean", f"{sensor_id}_std"
            if mean_key not in raw or std_key not in raw:
                raise SnapshotCorruptionError(
                    f"archive {path.name!r} holds sensor {sensor_id!r} but "
                    f"{norm_path.name!r} has no normalisation stats for it "
                    "— orphan archive from another snapshot?"
                )
            mean, std = raw[mean_key], raw[std_key]
            if not (np.isfinite(mean) and np.isfinite(std) and std > 0):
                raise SnapshotCorruptionError(
                    f"{norm_path.name!r} holds mean {mean!r}, std {std!r} "
                    f"for sensor {sensor_id!r}; expected a finite mean and a "
                    "finite std > 0 — hand-edited snapshot?"
                )
            checked.append((snapshot, ZNormStats(mean=mean, std=std)))
        try:
            for snapshot, stats in checked:
                self._admit(
                    snapshot.sensor_id, snapshot.series.size, snapshot.config,
                    lambda backend, snap=snapshot: build_smiler(snap, backend=backend),
                )
                self._norms[snapshot.sensor_id] = stats
        except Exception:
            for sensor_id in list(self._norms):
                self._drop(sensor_id)
            raise

    # ------------------------------------------------------- observability
    def metrics(self) -> dict:
        """JSON snapshot of the process-wide metrics registry.

        Empty until :func:`repro.obs.enable` is called — instrumentation
        is off by default and free when off.
        """
        return to_json(obs.get_registry())

    def trace_last_request(self) -> Span | None:
        """Span tree of the most recent instrumented request.

        For a ``forecast()`` this is the single forecast span; for
        ``forecast_all()`` / ``ingest_many()`` it is the batch root span
        owning exactly one ``lane`` child per backend shard (connected
        across worker threads and worker processes — the engine adopts
        each completed lane subtree under the root).  ``None`` until a
        request runs with observability enabled.
        """
        return self._last_trace

    # ------------------------------------------------------------- status
    def status(self) -> dict:
        """Fleet diagnostics: memory, simulated time, per-sensor state.

        Health records are snapshotted atomically (``health_dict``) and
        fleet membership is read under the admission lock, so a status
        taken while lanes are serving never shows a torn breaker record
        or a half-registered sensor.  Engines that move state
        off-process sync it back first, so counters and ledgers reflect
        every batch served so far.
        """
        self._engine.refresh()
        with self._admission_lock:
            counts = self.sensors_per_backend()
            sensors = dict(self._sensors)
        event_log = obs.get_event_log()
        return {
            "n_sensors": len(sensors),
            "engine": self._engine.name,
            "device_memory_bytes": self._pool.allocated_bytes,
            "device_sim_seconds": self._pool.elapsed_s,
            "max_workers": self.max_workers,
            "slo": {
                **obs.get_slo_tracker().snapshot(),
                "served_degraded": obs.served_degraded(),
            },
            "events": {
                "retained": len(event_log),
                "emitted_total": event_log.emitted_total,
                "dropped_total": event_log.dropped_total,
            },
            "backends": [
                {
                    "name": backend.name,
                    "n_sensors": counts[i],
                    "allocated_bytes": backend.allocated_bytes,
                    "sim_seconds": backend.elapsed_s,
                    "health": self._pool.health_dict(i),
                }
                for i, backend in enumerate(self._pool.backends)
            ],
            "sensors": {
                sensor_id: smiler.diagnostics()
                for sensor_id, smiler in sensors.items()
            },
        }

    # ------------------------------------------------------------ lifecycle
    def reset_time(self) -> None:
        """Zero every backend's simulated-time ledger, wherever the
        authoritative backend objects currently live (benchmark warmup
        boundaries)."""
        self._engine.reset_time()

    def close(self) -> None:
        """Release engine resources (shard worker processes), syncing
        any off-process state back first.  The service stays
        usable — a later batch restarts what it needs."""
        self._engine.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
