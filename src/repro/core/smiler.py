"""The SMiLer system: search step + prediction step + auto-tuning (Fig. 3).

One :class:`SMiLer` instance serves one sensor:

1. **Search step** — the Continuous Suffix kNN Search engine retrieves,
   for every item length in the ELV, the ``k_max`` nearest historical
   segments of the sensor's own stream (Section 4).
2. **Prediction step** — the ensemble matrix of semi-lazy predictors
   (AR or query-dependent GP) turns each cell's ``(k, d)`` slice of the
   kNN data into a Gaussian prediction, mixes them by the auto-tuned
   weights, and self-adapts once the true value arrives (Section 5).

:class:`SensorFleet` scales the same machinery to many sensors sharing
one (simulated) GPU, including the device-memory accounting behind
Fig. 12(c).
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..backend.base import ComputeBackend, as_backend
from ..index.suffix_search import (
    SuffixKnnAnswer,
    SuffixKnnEngine,
    SuffixSearchConfig,
    search_many,
)
from ..index.window_index import WindowLevelIndex, lane_of, step_many
from ..obs import hooks as obs
from .ar import AggregationPredictor
from .config import SMiLerConfig
from .ensemble import AdaptiveEnsemble, Cell, EnsembleOutput
from .gp_predictor import GaussianProcessPredictor
from .predictor import GaussianPrediction, SemiLazyPredictor

__all__ = ["SMiLer", "SensorFleet", "absorb_many", "predict_many"]

logger = logging.getLogger(__name__)


#: The reduced rung's predictor (stateless: one serves every sensor).
_REDUCED = AggregationPredictor()


def _make_predictor(config: SMiLerConfig) -> "SemiLazyPredictor":
    if config.predictor == "ar":
        return AggregationPredictor()
    return GaussianProcessPredictor(
        initial_train_iters=config.initial_train_iters,
        online_train_iters=config.online_train_iters,
    )


@dataclass
class _PendingUpdate:
    """A prediction awaiting its true value (auto-tuning is delayed by h)."""

    due_index: int
    components: dict[Cell, GaussianPrediction]


class SMiLer:
    """Semi-lazy time series prediction for one sensor."""

    def __init__(
        self,
        history: np.ndarray,
        config: SMiLerConfig | None = None,
        backend: ComputeBackend | None = None,
        sensor_id: str = "sensor-0",
    ) -> None:
        self.config = config or SMiLerConfig()
        self.sensor_id = sensor_id
        self.backend = as_backend(backend)
        history = np.asarray(history, dtype=np.float64)
        self.engine = SuffixKnnEngine(
            history, self._search_config(), backend=self.backend
        )

        self._ensembles: dict[int, AdaptiveEnsemble] = {
            h: AdaptiveEnsemble(
                cells=self.config.grid,
                predictor_factory=lambda cell: _make_predictor(self.config),
                self_adaptive=self.config.self_adaptive,
                sleep_enabled=self.config.sleep_enabled,
            )
            for h in self.config.horizons
        }
        self._pending: dict[int, deque[_PendingUpdate]] = {
            h: deque() for h in self.config.horizons
        }
        # Index of the next unobserved point.
        self._now = history.size
        # kNN answers for the current step; None = stale (re-search).
        self._answers: dict[int, SuffixKnnAnswer] | None = None

    def _search_config(self) -> SuffixSearchConfig:
        return SuffixSearchConfig(
            item_lengths=self.config.effective_elv(),
            k_max=self.config.k_max,
            omega=self.config.omega,
            rho=self.config.rho,
            margin=self.config.margin,
            reuse_threshold=self.config.reuse_threshold,
            lb_kim=self.config.lb_kim,
        )

    # ---------------------------------------------------------------- state
    @property
    def now(self) -> int:
        """Index of the next unobserved point of this sensor's stream."""
        return self._now

    @property
    def series(self) -> np.ndarray:
        """Current series contents (read-only view)."""
        return self.engine.series

    def ensemble(self, horizon: int) -> AdaptiveEnsemble:
        """The adaptive ensemble serving one horizon."""
        return self._ensembles[horizon]

    def _current_answers(self) -> dict[int, SuffixKnnAnswer]:
        if self._answers is None:
            self.install(self.engine.search())
        return self._answers

    # -------------------------------------------------------------- predict
    def predict(self, horizon: int | None = None) -> dict[int, EnsembleOutput]:
        """Gaussian predictions for the configured horizons — a lane of
        one of :func:`predict_many`, a failed outcome re-raised.

        One Suffix kNN answer per item length serves every horizon and
        every ensemble cell (the ensemble's whole point); stale answers
        are searched for first.
        """
        return _raised(predict_many([self], horizon)[0])

    def predict_reduced(self, horizon: int) -> GaussianPrediction:
        """Cheapest single-cell prediction: the smallest ``(k, d)`` cell
        through an :class:`AggregationPredictor`.

        The serving layer's degradation ladder uses this as the rung below
        the full ensemble: when the current step's kNN answers are already
        cached (the common case after an ingest) it touches the backend
        not at all, and it never trains a GP.  The ensemble's adaptive
        state is untouched — reduced predictions are not auto-tuned.
        """
        if horizon not in self._ensembles:
            raise KeyError(
                f"horizon {horizon} not configured; available: "
                f"{self.config.horizons}"
            )
        self._current_answers()
        return _raised(_LaneKnn([self]).predict_cell(
            min(self.config.grid), horizon, [0], [_REDUCED]
        )[0])

    def rebind(self, backend: ComputeBackend | None) -> "SMiLer":
        """Move this sensor to another backend: rebuild the search index
        from the accrued history, keep every ensemble's adaptive state.

        The index is a deterministic function of the series and
        configuration, so rebuilding (one vectorised pass) is the whole
        migration; auto-tuned weights, sleep schedules, warm-started GP
        hyperparameters and pending updates all survive untouched.
        Returns ``self`` so failover paths can treat it as a builder.
        """
        backend = as_backend(backend)
        series = np.array(self.engine.series, dtype=np.float64, copy=True)
        # Build the new engine before touching any state, so a failed
        # rebuild (e.g. a fault on the target backend) leaves this sensor
        # consistently bound to its old backend.
        engine = SuffixKnnEngine(series, self._search_config(), backend=backend)
        self.backend = backend
        self.engine = engine
        self._answers = None
        return self

    def _remember(self, horizon: int, output: EnsembleOutput) -> None:
        due = self._now - 1 + horizon
        queue = self._pending[horizon]
        if queue and queue[-1].due_index == due:
            queue[-1].components = output.components  # re-predicted this step
            return
        queue.append(_PendingUpdate(due_index=due, components=output.components))

    # -------------------------------------------------------------- observe
    def observe(self, value: float) -> None:
        """Feed the newly revealed true value: auto-tune, advance, search."""
        self.absorb(value)
        self.install(self.engine.search())

    def absorb(self, value: float) -> None:
        """The host-side half of :meth:`observe` (:func:`absorb_many` for
        a group of one): auto-tune on the revealed value and append it."""
        absorb_many([self], [value])

    def tune(self, value: float) -> None:
        """The auto-tuning half of absorbing a reading: score the
        prediction that was waiting for ``value`` and adapt the ensemble.
        Touches neither the index nor the backend."""
        arrived = self._now
        for h, queue in self._pending.items():
            while queue and queue[0].due_index < arrived:
                logger.debug(
                    "%s: dropping stale h=%d prediction due at %d (now %d)",
                    self.sensor_id, h, queue[0].due_index, arrived,
                )
                queue.popleft()  # stale (prediction was never scored)
            if queue and queue[0].due_index == arrived:
                update = queue.popleft()
                self._ensembles[h].update(value, update.components)

    def install(self, answers: dict[int, SuffixKnnAnswer]) -> None:
        """Adopt kNN answers searched for the current step."""
        self._answers = answers

    # ------------------------------------------------------------- memory
    def memory_bytes(self) -> int:
        """Device-resident footprint of this sensor's index."""
        return self.engine.window_index.memory_bytes()

    @staticmethod
    def estimate_memory_bytes(
        n_points: int, config: SMiLerConfig | None = None
    ) -> int:
        """Footprint of a sensor with ``n_points`` of history, *without*
        building it — what admission control uses to pick a backend before
        paying for index construction.  Exact for a freshly built sensor.
        """
        config = config or SMiLerConfig()
        return WindowLevelIndex.estimate_memory_bytes(
            n_points, max(config.effective_elv()), config.omega
        )

    # --------------------------------------------------------- diagnostics
    def diagnostics(self) -> dict:
        """Operational snapshot: weights, sleepers, reuse and cost counters.

        Everything an operator dashboard needs to see *why* the system
        predicts what it predicts — which (k, d) cells the auto-tuner
        trusts, who is asleep, and what the search layer is reusing.
        """
        wi = self.engine.window_index
        per_horizon = {}
        for horizon, ensemble in self._ensembles.items():
            per_horizon[horizon] = {
                "weights": dict(ensemble.weights()),
                "asleep": [
                    cell for cell in ensemble.cells
                    if ensemble.state(cell).asleep
                ],
                "updates": ensemble.updates,
            }
        return {
            "sensor_id": self.sensor_id,
            "now": self._now,
            "series_length": wi.series_length,
            "memory_bytes": self.memory_bytes(),
            "device_sim_seconds": self.backend.elapsed_s,
            "index_reuse": {
                "rows_built_full": wi.rows_built_full,
                "rows_recomputed_lbeq": wi.rows_recomputed_lbeq,
                "rows_reused": wi.rows_reused,
            },
            "horizons": per_horizon,
        }


def _raised(outcome):
    """``outcome``, unless it is an exception: then it is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class _LaneKnn:
    """The kNN data of sensors whose answers are current, gathered
    stacked — one row per sensor — from where their lane already keeps
    its series and master queries
    (:class:`~repro.index.window_index.LaneStack`): per item length one
    gather shared by every ``k`` and every horizon, per horizon one more
    for the targets."""

    def __init__(self, sensors: Sequence["SMiLer"]) -> None:
        self._answers = [sensor._answers for sensor in sensors]
        self._stack, self._rows = lane_of(
            [sensor.engine.window_index for sensor in sensors]
        )
        self._segments: dict[int, tuple] = {}
        self._targets: dict[tuple[int, int], tuple[np.ndarray, list[bool]]] = {}

    def segments(self, d: int) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
        """``(starts [S, width], sizes, queries [S, d], neighbours [S,
        width, d])``.  ``top(k)`` is a prefix of an answer, so answers
        are stacked whole, in their own order, and every ``k`` is a
        column slice; an answer shorter than the widest pads its row
        with start 0 and is sliced to its own size."""
        if d not in self._segments:
            stack, rows = self._stack, self._rows
            found = [answers[d].starts for answers in self._answers]
            sizes = np.array([starts.size for starts in found])
            starts = np.zeros((sizes.size, int(sizes.max())), dtype=np.int64)
            starts[np.arange(starts.shape[1]) < sizes[:, None]] = (
                np.concatenate(found)
            )
            self._segments[d] = (
                starts,
                sizes.tolist(),
                stack.master[rows, stack.master.shape[1] - d :],
                stack.series[
                    rows[:, None, None], starts[:, :, None] + np.arange(d)
                ],
            )
        return self._segments[d]

    def targets(self, d: int, horizon: int) -> tuple[np.ndarray, list[bool]]:
        """``(targets [S, width], observed)``: the ``horizon``-step-ahead
        value of every segment, and per sensor whether all of them are
        observed yet — the stack's padding is zero-filled, so an index
        past a row's own length would read silently; it is clamped and
        its row reported."""
        if (d, horizon) not in self._targets:
            stack, rows = self._stack, self._rows
            at = self.segments(d)[0] + (d - 1 + horizon)
            last = stack.series_len[rows][:, None] - 1
            self._targets[d, horizon] = (
                stack.series[rows[:, None], np.minimum(at, last)],
                (at <= last).all(axis=1).tolist(),
            )
        return self._targets[d, horizon]

    def predict_cell(
        self,
        cell: Cell,
        horizon: int,
        rows: Sequence[int],
        predictors: Sequence[SemiLazyPredictor],
    ) -> list["GaussianPrediction | Exception"]:
        """Cell ``(k, d)`` of sensors ``rows`` through their
        ``predictors``: one :meth:`SemiLazyPredictor.predict_rows` per
        stack of rows that take as many neighbours (an answer may hold
        fewer than ``k``) through one predictor family.  One outcome per
        row; whatever fails a stack fails its rows only."""
        k, d = cell
        _, sizes, queries, neighbours = self.segments(d)
        targets, observed = self.targets(d, horizon)
        outcomes: list = [None] * len(rows)
        stacks: dict[tuple, list[int]] = {}
        for at, (row, predictor) in enumerate(zip(rows, predictors)):
            if observed[row]:
                stacks.setdefault(
                    (min(k, sizes[row]), type(predictor)), []
                ).append(at)
            else:
                outcomes[at] = IndexError(
                    f"a {horizon}-step-ahead target of an item-length-{d} "
                    f"neighbour is not observed yet"
                )
        for (take, family), members in stacks.items():
            picked = np.array([rows[at] for at in members])
            try:
                results = family.predict_rows(
                    [predictors[at] for at in members], queries[picked],
                    neighbours[picked, :take], targets[picked, :take],
                )
            except Exception as error:  # noqa: BLE001 - this stack's rows fail
                results = [error.with_traceback(None)] * len(members)
            for at, result in zip(members, results):
                outcomes[at] = result
        return outcomes


def predict_many(
    sensors: Sequence[SMiLer], horizon: int | None = None
) -> list["dict[int, EnsembleOutput] | Exception"]:
    """The prediction step for a lane of sensors, the cells stacked.

    Returns one outcome per sensor, in order: its ``{horizon:
    EnsembleOutput}`` (every configured horizon when ``horizon`` is
    None), or the exception that failed *that* sensor — an unknown
    horizon, an unobserved target, a cell's failed prediction.  Only the
    search can fail the lane as a group (it raises): members whose
    answers are stale are searched for first, in one
    :func:`~repro.index.suffix_search.search_many`, so the sensors must
    share one backend object and search configuration (callers group by
    placement; a mixed group is a ``ValueError`` from the search or from
    :func:`~repro.index.window_index.lane_of`).  Per cell the sensors on
    which it is awake are one :meth:`_LaneKnn.predict_cell`; mixing
    (:meth:`AdaptiveEnsemble.mix`) and the pending-update queue stay per
    sensor.
    """
    if not sensors:
        return []
    backend = sensors[0].backend
    outcomes: list = [
        {} if horizon is None or horizon in sensor._ensembles else KeyError(
            f"horizon {horizon} not configured; available: "
            f"{sensor.config.horizons}"
        )
        for sensor in sensors
    ]
    # The lane proper: the sensors that asked for something it serves.
    lane = [s for s, out in zip(sensors, outcomes) if isinstance(out, dict)]
    if not lane:
        return outcomes
    with obs.span("predict", backend) as sp:
        if sp is not None:
            sp.attrs["n_sensors"] = len(sensors)
        stale = [sensor for sensor in lane if sensor._answers is None]
        if stale:
            found = search_many([sensor.engine for sensor in stale])
            for sensor, answers in zip(stale, found):
                sensor.install(answers)
        knn = _LaneKnn(lane)
        served: list = [out for out in outcomes if isinstance(out, dict)]
        for h in (horizon,) if horizon is not None else dict.fromkeys(
            h for sensor in lane for h in sensor.config.horizons
        ):
            with obs.span("ensemble_mix", backend) as esp:
                if esp is not None:
                    esp.attrs["horizon"] = h
                _predict_horizon(lane, served, knn, h)
    results = iter(served)
    return [
        next(results) if isinstance(out, dict) else out for out in outcomes
    ]


def _predict_horizon(
    lane: list[SMiLer], served: list, knn: _LaneKnn, h: int
) -> None:
    """One horizon of :func:`predict_many` for the sensors of ``lane``
    that serve it and have not failed: ``served[row][h]`` becomes the
    sensor's mixture (remembered for auto-tuning), or ``served[row]`` the
    exception that failed it — a failed sensor leaves the request."""
    # Sensors with one awake pattern join each of its cells together.
    patterns: dict[tuple[Cell, ...], list[int]] = {}
    for row, sensor in enumerate(lane):
        if h in sensor._ensembles and isinstance(served[row], dict):
            patterns.setdefault(
                tuple(sensor._ensembles[h].awake_cells()), []
            ).append(row)
    by_cell: dict[Cell, list[int]] = {}
    for cells, rows in patterns.items():
        for cell in cells:
            by_cell.setdefault(cell, []).extend(rows)
    components: dict[int, dict[Cell, GaussianPrediction]] = {
        row: {} for rows in patterns.values() for row in rows
    }
    for cell, rows in by_cell.items():
        rows = [row for row in rows if row in components]
        predictors = [
            lane[row]._ensembles[h].state(cell).predictor for row in rows
        ]
        results = knn.predict_cell(cell, h, rows, predictors)
        for row, result in zip(rows, results):
            if isinstance(result, Exception):
                served[row] = result
                del components[row]
            else:
                components[row][cell] = result
    for cells, rows in patterns.items():
        for row in rows:
            if row in components:
                output = lane[row]._ensembles[h].mix(
                    {cell: components[row][cell] for cell in cells}
                )
                served[row][h] = output
                lane[row]._remember(h, output)


def absorb_many(sensors: Sequence[SMiLer], values) -> None:
    """Absorb one revealed value per sensor, the index work stacked.

    Each sensor auto-tunes on its value (:meth:`SMiLer.tune`), then the
    group's window indexes advance in one
    :func:`~repro.index.window_index.step_many` — so the sensors must
    share one backend object and search configuration (callers group by
    placement).  Nothing here is a faultable kernel op: the readings are
    retained whatever happens to the follow-up search (which the caller
    runs once for the group, see
    :func:`~repro.index.suffix_search.search_many`); the kNN answers are
    stale from here until :meth:`SMiLer.install`, so a predict in
    between — possibly after a rebind — re-searches.
    """
    values = [float(value) for value in values]
    if len(values) != len(sensors):
        raise ValueError(f"{len(values)} values for {len(sensors)} sensors")
    for sensor, value in zip(sensors, values):
        sensor.tune(value)
    step_many([sensor.engine.window_index for sensor in sensors], values)
    for sensor in sensors:
        sensor._now += 1
        sensor._answers = None


class SensorFleet:
    """Many sensors, one device — the scale-out mode of Section 4.4.

    Construction allocates each sensor's index in the device's global
    memory, so exceeding the GPU's capacity raises
    :class:`repro.gpu.GpuMemoryError` exactly as Fig. 12(c) measures.
    """

    def __init__(
        self,
        histories: list[np.ndarray],
        config: SMiLerConfig | None = None,
        backend: ComputeBackend | None = None,
    ) -> None:
        if not histories:
            raise ValueError("a fleet needs at least one sensor")
        self.config = config or SMiLerConfig()
        self.backend = as_backend(backend)
        self.sensors: list[SMiLer] = []
        allocations = []
        try:
            for i, history in enumerate(histories):
                sensor = SMiLer(
                    history, self.config, backend=self.backend,
                    sensor_id=f"sensor-{i}",
                )
                allocations.append(self.backend.malloc(
                    sensor.memory_bytes(), label=sensor.sensor_id
                ))
                self.sensors.append(sensor)
        except BaseException:
            # A fleet that failed to construct holds no device memory.
            for allocation in allocations:
                self.backend.free(allocation)
            raise

    def __len__(self) -> int:
        return len(self.sensors)

    def predict_all(
        self, horizon: int | None = None
    ) -> list[dict[int, EnsembleOutput]]:
        """Predictions for every sensor (Fig. 3's parallel predictors):
        one :func:`predict_many`, a failed sensor's exception raised."""
        return [_raised(out) for out in predict_many(self.sensors, horizon)]

    def observe_all(self, values) -> None:
        """Feed each sensor its newly revealed true value."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != len(self.sensors):
            raise ValueError(
                f"{values.size} values for {len(self.sensors)} sensors"
            )
        # Every reading is retained before the one group search runs; if
        # that fails, every sensor's answers stay invalidated.
        absorb_many(self.sensors, values)
        found = search_many([sensor.engine for sensor in self.sensors])
        for sensor, answers in zip(self.sensors, found):
            sensor.install(answers)

    def memory_bytes(self) -> int:
        """Device-resident footprint in bytes."""
        return sum(sensor.memory_bytes() for sensor in self.sensors)
