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
a lane of sensors sharing one kernel domain, and :func:`predict_lane` is
the prediction step as arrays, one row per sensor, with no per-sensor
object; :class:`repro.PredictionService` serves a fleet through
:func:`predict_lane` and :func:`absorb_many`.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
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
from .ensemble import AdaptiveEnsemble, Cell, Components, EnsembleOutput, mix
from .ensemble import lane_of as _ensemble_lane
from .ensemble import tune_due
from .gp_predictor import GaussianProcessPredictor
from .predictor import (
    CellStack,
    GaussianPrediction,
    Outcome,
    SemiLazyPredictor,
    failed,
)

__all__ = ["SMiLer", "absorb_many", "group_rows", "predict_lane", "predict_many"]


#: The reduced rung's predictor (stateless: one serves every sensor).
_REDUCED = AggregationPredictor()


def _make_predictor(config: SMiLerConfig) -> "SemiLazyPredictor":
    if config.predictor == "ar":
        return AggregationPredictor()
    return GaussianProcessPredictor(
        initial_train_iters=config.initial_train_iters,
        online_train_iters=config.online_train_iters,
    )


@functools.lru_cache(maxsize=64)
def _search_config(config: SMiLerConfig) -> SuffixSearchConfig:
    """The search configuration of ``config``: one object for every
    equal ``config``, so a lane's members share it by identity."""
    return SuffixSearchConfig(
        item_lengths=config.effective_elv(),
        k_max=config.k_max,
        omega=config.omega,
        rho=config.rho,
        margin=config.margin,
        reuse_threshold=config.reuse_threshold,
        lb_kim=config.lb_kim,
    )


def _windows(series: np.ndarray, d: int) -> np.ndarray:
    """``[S, width - d + 1, d]``: every length-``d`` window of each row of
    the C-contiguous ``series [S, width]``, as a strided view of it
    (``sliding_window_view`` without the fixed cost of its checks, which
    a lane of one or two sensors would feel)."""
    rows, width = series.shape
    return np.ndarray(
        (rows, width - d + 1, d), series.dtype, series, 0,
        series.strides + series.strides[1:],
    )


def group_rows(*columns: Sequence) -> list[list[int]]:
    """The positions of equal-length ``columns`` grouped by equal entries
    in every column, groups in order of first appearance.  When each
    column's entries all equal its first — compared by identity first,
    so members sharing one object pay no ``__eq__`` — that is one group,
    found without hashing."""
    size = len(columns[0])
    if not size:
        return []
    if all([column.count(column[0]) == size for column in columns]):
        return [list(range(size))]
    groups: dict = {}
    for at, key in enumerate(zip(*columns)):
        groups.setdefault(key, []).append(at)
    return list(groups.values())


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
            history, _search_config(self.config), backend=self.backend
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
        # kNN answers for the current step; None = stale (re-search).
        self._answers: Mapping[int, SuffixKnnAnswer] | None = None

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

    def pending(self, horizon: int) -> list[tuple[int, Components]]:
        """The ``horizon``-step predictions still awaiting their true
        value, ``(due index, components)`` by due index: what the next
        readings will score."""
        ensemble = self._ensembles[horizon]
        stack, row = ensemble._stack, ensemble._row
        due = stack.due[row].tolist()
        return sorted(
            (step, Components(*(ring[row, slot].copy() for ring in stack.pending)))
            for slot, step in enumerate(due) if step >= self.now
        )

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
        engine = SuffixKnnEngine(series, _search_config(self.config), backend=backend)
        self.backend = backend
        self.engine = engine
        self._answers = None
        return self

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
                "pending": [due for due, _ in self.pending(horizon)],
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
        self._starts: dict[int, tuple[np.ndarray, list[int]]] = {}
        self._segments: dict[int, tuple] = {}
        self._targets: dict[tuple[int, int], tuple[np.ndarray, list[bool]]] = {}

    def starts(self, d: int) -> tuple[np.ndarray, list[int]]:
        """``(starts [S, width], sizes)``.  ``top(k)`` is a prefix of an
        answer, so answers are stacked whole, in their own order, and
        every ``k`` is a column slice; an answer shorter than the widest
        pads its row with start 0 and is sliced to its own size."""
        if d not in self._starts:
            if self._found is not None:  # one search's rows: read in place
                sizes = self._found.sizes[self._found.at[d]]
                starts = self._found.starts[self._found.at[d], :, : sizes.max()]
            else:
                found = [answers[d].starts for answers in self._answers]
                sizes = np.array([starts.size for starts in found])
                starts = pad_rows(np.concatenate(found), sizes, int(sizes.max()))
            self._starts[d] = (starts, sizes.tolist())
        return self._starts[d]

    def segments(self, d: int) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
        """``(starts [S, width], sizes, queries [S, d], neighbours [S,
        width, d])``: :meth:`starts` and the segments they name, gathered
        once per item length when a family first reads them."""
        if d not in self._segments:
            stack, rows = self._stack, self._rows
            starts, sizes = self.starts(d)
            self._segments[d] = (
                starts,
                sizes,
                stack.master[rows, stack.master.shape[1] - d :],
                _windows(stack.series, d)[rows[:, None], starts],
            )
        return self._segments[d]

    def _gather(self, d: int, picked: np.ndarray, take: int) -> tuple:
        """A :class:`CellStack`'s ``(queries, neighbours)``: rows
        ``picked`` of :meth:`segments`, their first ``take`` neighbours."""
        _, _, queries, neighbours = self.segments(d)
        return queries[picked], neighbours[picked, :take]

    def targets(self, d: int, horizon: int) -> tuple[np.ndarray, list[bool]]:
        """``(targets [S, width], observed)``: the ``horizon``-step-ahead
        value of every segment, and per sensor whether all of them are
        observed yet — the stack's padding is zero-filled, so an index
        past a row's own length would read silently; it is clamped and
        its row reported."""
        if (d, horizon) not in self._targets:
            stack, rows = self._stack, self._rows
            at = self.starts(d)[0] + (d - 1 + horizon)
            last = stack.series_len[rows][:, None] - 1
            self._targets[d, horizon] = (
                stack.series[rows[:, None], np.minimum(at, last)],
                (at <= last).all(axis=1).tolist(),
            )
        return self._targets[d, horizon]

    @property
    def now(self) -> np.ndarray:
        """``[S]``: each sensor's series length, the step it predicts from."""
        return self._stack.series_len[self._rows]

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
            outcomes: list = [None] * len(cells)
            families: dict[type, list] = {}
            for c, (cell, rows, predictors) in enumerate(cells):
                k, d = cell
                _, sizes = self.starts(d)
                targets, observed = self.targets(d, horizon)
                # An unobserved row takes no neighbours: a group of its own.
                takes = [
                    (k if k <= sizes[row] else sizes[row]) if observed[row] else None
                    for row in rows
                ]
                kinds = [predictor.__class__ for predictor in predictors]
                groups = group_rows(takes, kinds)
                if len(groups) > 1 or takes[0] is None:  # filled group by group
                    outcomes[c] = (np.zeros(len(rows)), np.zeros(len(rows)), {})
                for members in groups:
                    take, family = takes[members[0]], kinds[members[0]]
                    if take is None:
                        for at in members:
                            outcomes[c][2][at] = IndexError(
                                f"a {horizon}-step-ahead target of an "
                                f"item-length-{d} neighbour is not observed yet"
                            )
                        continue
                    if len(members) < len(rows):
                        picked = np.array([rows[at] for at in members])
                        chosen = [predictors[at] for at in members]
                    else:
                        picked, chosen = np.asarray(rows), predictors
                    families.setdefault(family, []).append((c, members, CellStack(
                        chosen, targets[picked, :take], d,
                        functools.partial(self._gather, d, picked, take),
                    )))
            for family, jobs in families.items():
                try:
                    results = family.predict_stacks([stack for _, _, stack in jobs])
                except Exception as error:  # noqa: BLE001 - this family's rows fail
                    results = [failed(len(members), error) for _, members, _ in jobs]
                for (c, members, _), outcome in zip(jobs, results):
                    if outcomes[c] is None:  # the cell's one stack
                        outcomes[c] = outcome
                        continue
                    mean, variance, errors = outcome
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
    as one stack (:func:`~repro.core.ensemble.mix`), their components
    remembered for auto-tuning as rows of their
    :class:`~repro.core.ensemble.EnsembleStack`.  :func:`predict_lane`
    is the same step for one horizon as arrays, with no per-sensor
    object.
    """
    outcomes: list = [{} for _ in sensors]
    errors, mixtures = _predict(sensors, horizon)
    for h, groups in mixtures.items():
        for positions, mean, variance, components, weights in groups:
            present, means, variances = components
            for i, (at, m, v) in enumerate(
                zip(positions, mean.tolist(), variance.tolist())
            ):
                if at not in errors:
                    outcomes[at][h] = EnsembleOutput(m, v, Components(
                        present[i], means[i], variances[i]
                    ), weights[i])
    for at, error in errors.items():
        outcomes[at] = error
    return outcomes


def predict_lane(sensors: Sequence[SMiLer], horizon: int) -> Outcome:
    """:func:`predict_many` at one horizon as arrays: ``(mean [S],
    variance [S], {position: exception})``, 0.0 where a sensor failed.
    The same search, cells, mixtures and remembered components; no
    :class:`~repro.core.ensemble.EnsembleOutput` is built."""
    errors, mixtures = _predict(sensors, horizon)
    groups = mixtures.get(horizon, [])
    if len(groups) == 1 and len(groups[0][0]) == len(sensors):
        return groups[0][1], groups[0][2], errors
    mean, variance = np.zeros((2, len(sensors)))
    for positions, mixed, spread, _, _ in groups:
        mean[positions], variance[positions] = mixed, spread
    return mean, variance, errors


def _predict(
    sensors: Sequence[SMiLer], horizon: int | None
) -> tuple[dict[int, Exception], dict[int, list[tuple]]]:
    """The body of :func:`predict_many` and :func:`predict_lane`:
    ``(errors, mixtures)`` — the exception that failed each failed
    sensor (by position), and per horizon the mixtures of its grid
    groups, ``(positions, mean, variance, components, weights)``.  A
    sensor failed at one horizon leaves the request: it is not predicted
    at the next, and its earlier mixtures are not its outcome."""
    errors: dict[int, Exception] = {}
    if horizon is not None:
        errors = {
            at: KeyError(
                f"horizon {horizon} not configured; available: "
                f"{sensor.config.horizons}"
            )
            for at, sensor in enumerate(sensors) if horizon not in sensor._ensembles
        }
    # The lane proper: the sensors that asked for something it serves.
    lane = [at for at in range(len(sensors)) if at not in errors]
    if not lane:
        return errors, {}
    members = [sensors[at] for at in lane] if errors else list(sensors)
    mixtures: dict[int, list[tuple]] = {}
    backend = sensors[0].backend
    with obs.span("predict", backend) as sp:
        if sp is not None:
            sp.attrs["n_sensors"] = len(sensors)
        stale = [sensor for sensor in members if sensor._answers is None]
        if stale:
            found = search_many([sensor.engine for sensor in stale])
            for sensor, answers in zip(stale, found):
                sensor.install(answers)
        knn = _LaneKnn(members)
        horizons = (horizon,) if horizon is not None else dict.fromkeys(
            [h for sensor in members for h in sensor.config.horizons]
        )
        failed_rows: dict[int, Exception] = {}
        for h in horizons:
            with obs.span("ensemble_mix", backend) as esp:
                if esp is not None:
                    esp.attrs["horizon"] = h
                rows = [
                    row for row, sensor in enumerate(members)
                    if h in sensor._ensembles and row not in failed_rows
                ]
                groups = _predict_horizon(members, knn, h, rows, failed_rows)
            mixtures[h] = groups if len(lane) == len(sensors) else [
                ([lane[row] for row in positions], *mixture)
                for positions, *mixture in groups
            ]
    errors.update((lane[row], error) for row, error in failed_rows.items())
    return errors, mixtures


def _predict_horizon(
    lane: list[SMiLer], knn: _LaneKnn, h: int, rows: list[int],
    failures: dict[int, Exception],
) -> list[tuple]:
    """One horizon of :func:`_predict` for the sensors at ``rows`` of
    ``lane``: the mixtures of each grid group that served, ``(rows,
    mean, variance, components, weights)``, their components remembered
    for auto-tuning; a sensor whose cell failed goes to ``failures``
    (its first failed cell's exception) and leaves the request."""
    if not rows:
        return []
    # The sensors of one grid ask for their awake cells together, a cell
    # at a time in grid order, and mix as one stack.
    ensembles = [lane[row]._ensembles[h] for row in rows]
    lanes, asked = [], []
    for members in group_rows([ensemble.cells for ensemble in ensembles]):
        if len(members) < len(rows):
            grid_rows = [rows[at] for at in members]
            grid = [ensembles[at] for at in members]
        else:
            grid_rows, grid = rows, ensembles
        stack, seated = _ensemble_lane(grid)
        asleep, first = stack.asleep[seated], len(asked)
        for cell, slept in zip(grid[0].cells, asleep.T.tolist()):
            awake = [row for row, off in zip(grid_rows, slept) if not off]
            if awake:
                asked.append((cell, awake, [
                    ensemble.predictors[cell]
                    for ensemble, off in zip(grid, slept) if not off
                ]))
        lanes.append((grid_rows, stack, seated, ~asleep, slice(first, len(asked))))
    outcomes = knn.predict_cells(h, asked)
    failed_before = len(failures)
    for (_, cell_rows, _), (_, _, errors) in zip(asked, outcomes):
        for at, error in errors.items():
            failures.setdefault(cell_rows[at], error)
    now = knn.now
    mixtures = []
    for grid_rows, stack, seated, awake, cells in lanes:
        # [sensors, cells], 0.0 where a cell sleeps: the cells' rows, in
        # grid order, fill the awake flags column by column.
        mean, variance = np.zeros((2, *awake.shape))
        mean.T[awake.T] = np.concatenate([m for m, _, _ in outcomes[cells]])
        variance.T[awake.T] = np.concatenate([v for _, v, _ in outcomes[cells]])
        components = Components(awake, mean, variance)
        if len(failures) > failed_before:
            kept = [at for at, row in enumerate(grid_rows) if row not in failures]
            if not kept:
                continue
            grid_rows = [grid_rows[at] for at in kept]
            seated = seated[kept]
            components = Components(*(field[kept] for field in components))
        with obs.span("mix"):
            mixed, spread, weights = mix(stack.weight[seated], components)
            stack.remember(seated, now[grid_rows] - 1 + h, h, components)
        mixtures.append((grid_rows, mixed, spread, components, weights))
    return mixtures


def tune_many(sensors: Sequence[SMiLer], values: Sequence[float]) -> None:
    """The auto-tuning half of absorbing one reading per sensor: score
    the predictions the values were waiting for, remembered as rows of
    each horizon's :class:`~repro.core.ensemble.EnsembleStack`, in one
    :func:`~repro.core.ensemble.tune_due` per horizon and grid.  Touches
    neither the index nor the backend."""
    stack, rows = lane_of([sensor.engine.window_index for sensor in sensors])
    arrived = stack.series_len[rows]
    for h in dict.fromkeys([h for sensor in sensors for h in sensor._ensembles]):
        serving = [
            at for at, sensor in enumerate(sensors) if h in sensor._ensembles
        ]
        ensembles = [sensors[at]._ensembles[h] for at in serving]
        for members in group_rows([ensemble.cells for ensemble in ensembles]):
            if len(members) == len(sensors):  # the whole lane, in order
                tune_due(ensembles, values, arrived, h)
                continue
            positions = [serving[i] for i in members]
            tune_due(
                [ensembles[i] for i in members],
                [values[at] for at in positions], arrived[positions], h,
            )


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

