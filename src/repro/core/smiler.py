"""The SMiLer system: search step + prediction step + auto-tuning (Fig. 3).

One :class:`SMiLer` instance serves one sensor:

1. **Search step** — the Continuous Suffix kNN Search engine retrieves,
   for every item length in the ELV, the ``k_max`` nearest historical
   segments of the sensor's own stream (Section 4).
2. **Prediction step** — the ensemble matrix of semi-lazy predictors
   (AR or query-dependent GP) turns each cell's ``(k, d)`` slice of the
   kNN data into a Gaussian prediction, mixes them by the auto-tuned
   weights, and self-adapts once the true value arrives (Section 5).

:func:`predict_many` and :func:`absorb_many` run the same machinery for
a lane of sensors sharing one kernel domain; :class:`repro.PredictionService`
serves a fleet through them.
"""

from __future__ import annotations

import logging
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..backend.base import ComputeBackend, as_backend
from ..index.suffix_search import (
    SuffixKnnAnswer,
    SuffixKnnEngine,
    SuffixSearchConfig,
    lane_behind,
    pad_rows,
    search_many,
)
from ..index.window_index import WindowLevelIndex, lane_of, step_many
from ..obs import hooks as obs
from .ar import AggregationPredictor
from .config import SMiLerConfig
from .ensemble import AdaptiveEnsemble, Cell, Components, EnsembleOutput, mix_many
from .ensemble import lane_of as _ensemble_lane
from .ensemble import update_many
from .gp_predictor import GaussianProcessPredictor
from .predictor import GaussianPrediction, Outcome, SemiLazyPredictor, failed

__all__ = ["SMiLer", "absorb_many", "predict_many"]

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
    components: Components


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
        # kNN answers for the current step; None = stale (re-search).
        self._answers: Mapping[int, SuffixKnnAnswer] | None = None

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
        return self.engine.window_index.series_length

    @property
    def series(self) -> np.ndarray:
        """Current series contents (read-only view)."""
        return self.engine.series

    def ensemble(self, horizon: int) -> AdaptiveEnsemble:
        """The adaptive ensemble serving one horizon."""
        return self._ensembles[horizon]

    def _current_answers(self) -> Mapping[int, SuffixKnnAnswer]:
        if self._answers is None:
            self.install(search_many([self.engine])[0])
        return self._answers

    # -------------------------------------------------------------- predict
    def predict(self, horizon: int | None = None) -> dict[int, EnsembleOutput]:
        """Gaussian predictions for the configured horizons — a lane of
        one of :func:`predict_many`, a failed outcome re-raised.

        One Suffix kNN answer per item length serves every horizon and
        every ensemble cell (the ensemble's whole point); stale answers
        are searched for first.
        """
        [outcome] = predict_many([self], horizon)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

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
        [(mean, variance, errors)] = _LaneKnn([self]).predict_cells(
            horizon, [(min(self.config.grid), [0], [_REDUCED])]
        )
        if errors:
            raise errors[0]
        return GaussianPrediction(float(mean[0]), float(variance[0]))

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
        due = self.now - 1 + horizon
        queue = self._pending[horizon]
        if queue and queue[-1].due_index == due:
            queue[-1].components = output.components  # re-predicted this step
            return
        queue.append(_PendingUpdate(due_index=due, components=output.components))

    # -------------------------------------------------------------- observe
    def observe(self, value: float) -> None:
        """Feed the newly revealed true value: auto-tune, advance, search."""
        self.absorb(value)
        self.install(search_many([self.engine])[0])

    def absorb(self, value: float) -> None:
        """The host-side half of :meth:`observe` (:func:`absorb_many` for
        a group of one): auto-tune on the revealed value and append it."""
        absorb_many([self], [value])

    def install(self, answers: Mapping[int, SuffixKnnAnswer]) -> None:
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
            "now": self.now,
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


class _LaneKnn:
    """The kNN data of sensors whose answers are current, gathered
    stacked — one row per sensor — from where their lane already keeps
    its series and master queries
    (:class:`~repro.index.window_index.LaneStack`) and its answers: per
    item length one gather shared by every ``k`` and every horizon, per
    horizon one more for the targets."""

    def __init__(self, sensors: Sequence["SMiLer"]) -> None:
        self._answers = [sensor._answers for sensor in sensors]
        self._found = lane_behind(self._answers)
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
            if self._found is not None:  # one search's rows: read in place
                sizes = self._found.sizes[self._found.at[d]]
                starts = self._found.starts[self._found.at[d], :, : sizes.max()]
            else:
                found = [answers[d].starts for answers in self._answers]
                sizes = np.array([starts.size for starts in found])
                starts = pad_rows(np.concatenate(found), sizes, int(sizes.max()))
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

    def predict_cells(
        self,
        horizon: int,
        cells: Sequence[tuple[Cell, Sequence[int], Sequence[SemiLazyPredictor]]],
    ) -> list[Outcome]:
        """Each ``(cell, rows, predictors)``: cell ``(k, d)`` of sensors
        ``rows`` through their ``predictors``, ``(mean, variance, {at:
        exception})`` over the rows.  The rows of a cell that take as many
        neighbours (an answer may hold fewer than ``k``) through one family
        form a stack; each family gets every stack of every cell in one
        :meth:`SemiLazyPredictor.predict_stacks`, whatever fails that call
        failing its rows only."""
        with obs.span("predict_cells"):
            outcomes = [(np.zeros(len(r)), np.zeros(len(r)), {}) for _, r, _ in cells]
            families: dict[type, list] = {}
            for c, (cell, rows, predictors) in enumerate(cells):
                k, d = cell
                _, sizes, queries, neighbours = self.segments(d)
                targets, observed = self.targets(d, horizon)
                stacks: dict[tuple, list[int]] = {}
                for at, (row, predictor) in enumerate(zip(rows, predictors)):
                    if observed[row]:
                        stacks.setdefault(
                            (min(k, sizes[row]), type(predictor)), []
                        ).append(at)
                    else:
                        outcomes[c][2][at] = IndexError(
                            f"a {horizon}-step-ahead target of an item-length-{d} "
                            f"neighbour is not observed yet"
                        )
                for (take, family), members in stacks.items():
                    picked = np.array([rows[at] for at in members])
                    families.setdefault(family, []).append((c, members, (
                        [predictors[at] for at in members], queries[picked],
                        neighbours[picked, :take], targets[picked, :take],
                    )))
            for family, jobs in families.items():
                try:
                    results = family.predict_stacks([stack for _, _, stack in jobs])
                except Exception as error:  # noqa: BLE001 - this family's rows fail
                    results = [failed(len(members), error) for _, members, _ in jobs]
                for (c, members, _), (mean, variance, errors) in zip(jobs, results):
                    cell_mean, cell_variance, cell_errors = outcomes[c]
                    cell_mean[members], cell_variance[members] = mean, variance
                    for at, error in errors.items():
                        cell_errors[members[at]] = error
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
    share one kernel domain and search configuration (callers group by
    domain; a mixed group is a ``ValueError`` from the search or from
    :func:`~repro.index.window_index.lane_of`).  Per horizon every awake
    cell of every sensor is one :meth:`_LaneKnn.predict_cells` — one
    :meth:`SemiLazyPredictor.predict_stacks` per predictor family, so a
    GP lane trains all its cells in lock step — and a grid's sensors mix
    as one stack (:func:`~repro.core.ensemble.mix_many`); the
    pending-update queue stays per sensor.
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
    # The sensors of one grid ask for their awake cells together, a cell
    # at a time in grid order, and mix as one stack.
    grids: dict[tuple[Cell, ...], list[int]] = {}
    for row, sensor in enumerate(lane):
        if h in sensor._ensembles and isinstance(served[row], dict):
            grids.setdefault(sensor._ensembles[h].cells, []).append(row)
    lanes, asked = [], []
    for grid, rows in grids.items():
        ensembles = [lane[row]._ensembles[h] for row in rows]
        stack, seated = _ensemble_lane(ensembles)
        asleep, first = stack.asleep[seated], len(asked)
        for cell, slept in zip(grid, asleep.T.tolist()):
            awake = [at for at, off in enumerate(slept) if not off]
            if awake:
                asked.append((
                    cell, [rows[at] for at in awake],
                    [ensembles[at].predictors[cell] for at in awake],
                ))
        lanes.append((rows, ensembles, ~asleep, slice(first, len(asked))))
    outcomes = knn.predict_cells(h, asked)
    failures: dict[int, Exception] = {}  # a sensor's first failed cell
    for (_, rows, _), (_, _, errors) in zip(asked, outcomes):
        for at, error in errors.items():
            failures.setdefault(rows[at], error)
    for row, error in failures.items():
        served[row] = error
    for rows, ensembles, awake, cells in lanes:
        # [sensors, cells], 0.0 where a cell sleeps: the cells' rows, in
        # grid order, fill the awake flags column by column.
        mean, variance = np.zeros((2, *awake.shape))
        mean.T[awake.T] = np.concatenate([m for m, _, _ in outcomes[cells]])
        variance.T[awake.T] = np.concatenate([v for _, v, _ in outcomes[cells]])
        kept = [at for at, row in enumerate(rows) if row not in failures]
        if kept:
            with obs.span("mix"):
                outputs = mix_many(
                    [ensembles[at] for at in kept],
                    Components(awake[kept], mean[kept], variance[kept]),
                )
            for at, output in zip(kept, outputs):
                served[rows[at]][h] = output
                lane[rows[at]]._remember(h, output)


def tune_many(sensors: Sequence[SMiLer], values: Sequence[float]) -> None:
    """The auto-tuning half of absorbing one reading per sensor: score
    the predictions the values were waiting for (the queues stay per
    sensor) in one :func:`~repro.core.ensemble.update_many` per horizon
    and grid.  Touches neither the index nor the backend."""
    stack, rows = lane_of([sensor.engine.window_index for sensor in sensors])
    lanes: dict[tuple, tuple[list, list, list]] = {}
    for sensor, value, arrived in zip(
        sensors, values, stack.series_len[rows].tolist()
    ):
        for h, queue in sensor._pending.items():
            while queue and queue[0].due_index < arrived:
                logger.debug(
                    "%s: dropping stale h=%d prediction due at %d (now %d)",
                    sensor.sensor_id, h, queue[0].due_index, arrived,
                )
                queue.popleft()  # stale (prediction was never scored)
            ensemble = sensor._ensembles[h]
            members, scored, due = lanes.setdefault((h, ensemble.cells), ([], [], []))
            members.append(ensemble)
            scored.append(value)
            due.append(
                queue.popleft().components
                if queue and queue[0].due_index == arrived else None
            )
    for members, scored, due in lanes.values():
        update_many(members, scored, due)


def absorb_many(sensors: Sequence[SMiLer], values) -> None:
    """Absorb one revealed value per sensor, the index work stacked.

    The sensors auto-tune on their values as one lane
    (:func:`tune_many`), then the group's window indexes advance in one
    :func:`~repro.index.window_index.step_many` — so the sensors must
    share one kernel domain and search configuration (callers group by
    domain).  Nothing here is a faultable kernel op: the readings are
    retained whatever happens to the follow-up search (which the caller
    runs once for the group, see
    :func:`~repro.index.suffix_search.search_many`); the kNN answers are
    stale from here until :meth:`SMiLer.install`, so a predict in
    between — possibly after a rebind — re-searches.
    """
    with obs.span("absorb_many"):
        values = [float(value) for value in values]
        if len(values) != len(sensors):
            raise ValueError(f"{len(values)} values for {len(sensors)} sensors")
        with obs.span("tune"):
            tune_many(sensors, values)
        with obs.span("step_many"):
            step_many([sensor.engine.window_index for sensor in sensors], values)
        for sensor in sensors:
            sensor._answers = None

