"""Adaptive auto-tuning ensemble (Sections 3.2.2 and 5.1).

One :class:`AdaptiveEnsemble` manages the ensemble matrix ``lambda`` for
one sensor and one horizon:

* **weights** (Section 5.1.1) — after the true value ``y(t)`` arrives,
  each awake predictor's weight moves by its normalised predictive
  likelihood (Eqns. 6-9), an exponential smoothing of the predictor's
  posterior probability,
* **sleep & recovery** (Section 5.1.2) — predictors whose weight falls
  below ``eta = 1 / (2 n m)`` sleep for ``sigma`` steps (doubling on an
  immediate re-sleep after recovery, halving per surviving step), and
  recovered predictors re-enter at weight ``eta``.

The ensemble is agnostic to what the predictors are: a factory builds
one :class:`~repro.core.predictor.SemiLazyPredictor` per matrix cell.
The combined output is the moment-matched Gaussian of the weighted
mixture (Eqn. 3).

The unit of auto-tuning is a *lane*: ensembles that tune together keep
their per-cell scalars as rows of one :class:`EnsembleStack`, so
:func:`update_many` and :func:`mix` are array computations over
``(ensembles × cells)`` :class:`Components`.  The stack also keeps each
row's predictions until their true values arrive
(:meth:`EnsembleStack.remember`), so a lane that mixed them stacked is
scored stacked (:func:`tune_due`).  :meth:`AdaptiveEnsemble.update` /
:meth:`AdaptiveEnsemble.predict` are lanes of one.  Sums are folded
left to right in cell order and ``x ** 2`` is ``np.float_power(x, 2.0)``
(the same ``pow``), so a row's bits are the ones it gets alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..tolerances import MIX_SPREAD_FLOOR, RECOVERY_FLOOR
from .predictor import SemiLazyPredictor

__all__ = ["Cell", "CellState", "AdaptiveEnsemble", "Components", "EnsembleOutput"]

logger = logging.getLogger(__name__)

#: A matrix cell: (k_i, d_j) — neighbour count and segment length.
Cell = tuple[int, int]

#: The per-cell scalars of an :class:`EnsembleStack` (``sleep_span`` is
#: sigma, how long the next sleep lasts).
_FIELDS = ("weight", "asleep", "sleep_span", "sleep_remaining", "just_recovered")


def _row_field(name: str, kind: type) -> property:
    """``name`` of a :class:`CellState`'s cell, in its ensemble's row."""

    def get(state):
        ensemble = state._ensemble
        return kind(getattr(ensemble._stack, name)[ensemble._row, state._column])

    def put(state, value) -> None:
        ensemble = state._ensemble
        getattr(ensemble._stack, name)[ensemble._row, state._column] = value

    return property(get, put)


class CellState:
    """Book-keeping for one predictor ``f_{i,j}``: a read-write view of
    its cell — the ensemble's predictor, and the ensemble's stack row
    read back as Python ``float``, ``bool`` and ``int``."""

    def __init__(self, ensemble: "AdaptiveEnsemble", cell: Cell) -> None:
        self._ensemble, self._cell = ensemble, cell
        self._column = ensemble._columns[cell]

    @property
    def predictor(self) -> SemiLazyPredictor:
        return self._ensemble.predictors[self._cell]

    @predictor.setter
    def predictor(self, predictor: SemiLazyPredictor) -> None:
        self._ensemble.predictors[self._cell] = predictor

    weight = _row_field("weight", float)
    asleep = _row_field("asleep", bool)
    sleep_span = _row_field("sleep_span", int)
    sleep_remaining = _row_field("sleep_remaining", int)
    just_recovered = _row_field("just_recovered", bool)


class EnsembleStack:
    """Struct-of-arrays state of the ensembles that tune together: one
    ``(ensembles × cells)`` array per :data:`_FIELDS` entry, rows sharing
    their cells, and each row's predictions awaiting their true value
    (:meth:`remember`).  The
    :class:`~repro.index.window_index.LaneStack` convention: a handle
    knows its stack and row, the stack holds arrays only."""

    def __init__(self, size: int, n_cells: int, depth: int = 0) -> None:
        self.size = size
        # Uniform weights, everyone awake, spans of 1: a fresh ensemble.
        for name, fresh in zip(_FIELDS, (1.0 / n_cells, False, 1, 0, False)):
            setattr(self, name, np.full((size, n_cells), fresh))
        # The pending ring: slot ``due % horizon`` of a row holds the
        # components predicted for step ``due`` (``-1``: never written).
        self.due = np.full((size, depth), -1)
        self.pending = Components(
            np.zeros((size, depth, n_cells), dtype=bool),
            *np.zeros((2, size, depth, n_cells)),
        )

    @classmethod
    def of(cls, ensembles: Sequence["AdaptiveEnsemble"]) -> "EnsembleStack":
        """The stack whose rows are exactly ``ensembles``, in order —
        packed afresh (and the handles re-seated) when they are not
        already that: a sensor joined or left, or the group is new."""
        stack = ensembles[0]._stack
        if stack.size == len(ensembles) and all([
            ensemble._stack is stack for ensemble in ensembles
        ]) and [ensemble._row for ensemble in ensembles] == list(range(stack.size)):
            return stack
        if any(ensemble.cells != ensembles[0].cells for ensemble in ensembles):
            raise ValueError("ensembles that tune together must share their cells")
        if len({id(ensemble) for ensemble in ensembles}) != len(ensembles):
            raise ValueError("the same ensemble appears twice in one group")
        depth = max(ensemble._stack.due.shape[1] for ensemble in ensembles)
        packed = cls(len(ensembles), len(ensembles[0].cells), depth)
        for row, ensemble in enumerate(ensembles):
            source, at = ensemble._stack, ensemble._row
            for name in _FIELDS:
                getattr(packed, name)[row] = getattr(source, name)[at]
            packed._copy_ring(row, source, at)
            ensemble._stack, ensemble._row = packed, row
        return packed

    def _copy_ring(self, rows, source: "EnsembleStack", at) -> None:
        """Rows ``rows`` of the pending ring take ``source``'s rows
        ``at``; a shallower ring fills the first slots, where ``due %
        horizon`` put its steps."""
        held = source.due.shape[1]
        self.due[rows, :held] = source.due[at]
        for mine, theirs in zip(self.pending, source.pending):
            mine[rows, :held] = theirs[at]

    def remember(
        self, rows: np.ndarray, due: np.ndarray, horizon: int,
        components: Components,
    ) -> None:
        """Keep ``components [R, C]`` of ``rows`` until the readings at
        ``due [R]`` arrive, in place of whatever those rows predicted for
        the same step before.  A row predicts for steps ``now - 1 +
        horizon``, so every due index it still waits for falls in
        ``[now, now + horizon)``: the ring holds ``horizon`` slots, and a
        slot's older step is one no reading will score any more."""
        if self.due.shape[1] < horizon:  # deepen, slots where they were
            grown = EnsembleStack(self.size, self.weight.shape[1], horizon)
            grown._copy_ring(slice(None), self, slice(None))
            self.due, self.pending = grown.due, grown.pending
        slot = due % horizon
        self.due[rows, slot] = due
        for ring, part in zip(self.pending, components):
            ring[rows, slot] = part

    def recall(
        self, arrived: np.ndarray, horizon: int
    ) -> tuple[list[int], Components | None]:
        """The rows holding a prediction for their step ``arrived [R]``,
        and those predictions' components ``[F, C]``."""
        if self.due.shape[1] < horizon:  # nothing remembered at this depth
            return [], None
        rows, slot = np.arange(self.size), arrived % horizon
        found = (self.due[rows, slot] == arrived).nonzero()[0]
        if found.size < self.size:
            rows, slot = found, slot[found]
        return found.tolist(), Components(*(ring[rows, slot] for ring in self.pending))


def lane_of(
    ensembles: Sequence["AdaptiveEnsemble"],
) -> tuple[EnsembleStack, np.ndarray]:
    """The stack behind ``ensembles`` and their rows in it, for reading:
    where they are if they share one (any subset, any order), packed
    together first if they live apart."""
    stack = ensembles[0]._stack
    if not all([ensemble._stack is stack for ensemble in ensembles]):
        stack = EnsembleStack.of(ensembles)
    return stack, np.array([ensemble._row for ensemble in ensembles])


class Components(NamedTuple):
    """Per-cell Gaussians in an ensemble's cell order: ``[C]`` for one
    ensemble, ``[R, C]`` for a lane of them.  ``present`` flags the cells
    that predicted; ``mean`` and ``variance`` are their posteriors, 0.0
    where absent (the mixture's and the update's folds add those terms)."""

    present: np.ndarray
    mean: np.ndarray
    variance: np.ndarray


@dataclass
class EnsembleOutput:
    """Mixture prediction plus its per-cell components (for auto-tuning)
    and mixing weights (0.0 where a cell did not predict), in cell order."""

    mean: float
    variance: float
    components: Components
    weights: np.ndarray


class AdaptiveEnsemble:
    """The ensemble matrix ``lambda`` with self-adaptive weights: a
    handle on one row of an :class:`EnsembleStack`."""

    def __init__(
        self,
        cells: list[Cell],
        predictor_factory: Callable[[Cell], SemiLazyPredictor],
        self_adaptive: bool = True,
        sleep_enabled: bool = True,
    ) -> None:
        if not cells:
            raise ValueError("the ensemble matrix must have at least one cell")
        if len(set(cells)) != len(cells):
            raise ValueError(f"duplicate cells in the ensemble matrix: {cells}")
        #: All matrix cells in creation order: the stack's columns.
        self.cells: tuple[Cell, ...] = tuple(cells)
        self._columns = {cell: column for column, cell in enumerate(self.cells)}
        self.predictors = {cell: predictor_factory(cell) for cell in self.cells}
        self.self_adaptive = self_adaptive
        self.sleep_enabled = sleep_enabled and self_adaptive and len(cells) > 1
        #: eta of Section 5.1.2 (n*m is the matrix size).
        self.eta = 1.0 / (2.0 * len(cells))
        self.updates = 0
        # A private stack of one until this ensemble first tunes in a group.
        self._stack, self._row = EnsembleStack(1, len(cells)), 0

    # ---------------------------------------------------------------- views
    def awake_cells(self) -> list[Cell]:
        """Cells that must be evaluated this step (sleepers cost nothing)."""
        asleep = self._stack.asleep[self._row].tolist()
        return [cell for cell, slept in zip(self.cells, asleep) if not slept]

    def weights(self) -> dict[Cell, float]:
        """Current normalised weights of the awake cells."""
        weight = self._stack.weight[self._row].tolist()
        return {cell: weight[self._columns[cell]] for cell in self.awake_cells()}

    def state(self, cell: Cell) -> CellState:
        """Book-keeping record of one cell (a read-write view)."""
        return CellState(self, cell)

    # -------------------------------------------------------------- predict
    def predict(
        self, inputs: dict[Cell, tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> EnsembleOutput:
        """Mixture prediction from per-cell ``(query, X_{k,d}, Y_h)`` data
        — a lane of one of :func:`mix_many`.

        ``inputs`` must cover every awake cell.  The output Gaussian
        moment-matches the weighted mixture: its mean is the weighted mean
        and its variance includes the between-component spread.
        """
        awake = self.awake_cells()
        missing = [cell for cell in awake if cell not in inputs]
        if missing:
            raise KeyError(f"missing kNN inputs for awake cells: {missing}")
        present = ~self._stack.asleep[self._row]
        mean, variance = np.zeros(len(self.cells)), np.zeros(len(self.cells))
        for cell in awake:
            column = self._columns[cell]
            prediction = self.predictors[cell].predict(*inputs[cell])
            mean[column], variance[column] = prediction.mean, prediction.variance
        return mix_many(
            [self], Components(present[None], mean[None], variance[None])
        )[0]

    # --------------------------------------------------------------- update
    def update(self, true_value: float, components: Components) -> None:
        """Auto-tune after observing ``true_value`` (Eqns. 6-9 + Section
        5.1.2) — a lane of one of :func:`update_many`.

        ``components`` are the per-cell predictions produced for this very
        time step (:attr:`EnsembleOutput.components`).
        """
        update_many([self], [true_value], [components])


def _fold(terms: np.ndarray) -> np.ndarray:
    """Row sums of ``terms [R, C]`` added left to right, from 0: Python's
    ``sum()`` on CPython 3.11 (3.12's is compensated).  An accumulation
    folds from the first term; ``+ 0.0`` turns an all-(-0.0) row +0.0."""
    return np.add.accumulate(terms, axis=1)[:, -1] + 0.0


def _numpy_sum(terms: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Per row, ``terms[row, live[row]].sum()`` as the row alone gets it,
    for ``terms`` zero where not live: NumPy folds fewer than 8 terms left
    to right (the zeros change nothing) and sums 8 or more as a pairwise
    tree, so those rows are compacted per live pattern."""
    if terms.shape[1] < 8:
        return terms.sum(axis=1)
    patterns: dict[tuple[bool, ...], list[int]] = {}
    for row, flags in enumerate(live.tolist()):
        patterns.setdefault(tuple(flags), []).append(row)
    total = np.empty(terms.shape[0])
    for flags, rows in patterns.items():
        # One indexing step leaves the rows C-contiguous: summed along a
        # strided last axis they would fold column by column instead.
        total[rows] = terms[np.array(rows)[:, None], np.flatnonzero(flags)].sum(1)
    return total


def _normalised(weight: np.ndarray, awake: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``weight`` with the awake cells of ``rows [R, 1]`` divided by
    their total — or, where that total is not positive, set uniform."""
    if not rows.any():
        return weight
    total = _fold(np.where(awake, weight, 0.0))[:, None]
    flat = total <= 0
    scaled = weight / np.where(flat, 1.0, total)
    if flat.any():
        uniform = 1.0 / np.maximum(awake.sum(axis=1, keepdims=True), 1)
        scaled = np.where(flat, uniform, scaled)
    return np.where(rows & awake, scaled, weight)


def update_many(
    ensembles: Sequence[AdaptiveEnsemble],
    values: Sequence[float],
    components: Sequence[Components | None],
) -> None:
    """Auto-tune a lane of ensembles sharing their cells, stacked (one
    :class:`EnsembleStack` from here on): ensemble ``i`` scores
    ``components[i]`` — its ``[C]`` row of the predictions made for the
    step ``values[i]`` reveals — or, where that is ``None``, has nothing due."""
    scored = [at for at, found in enumerate(components) if found is not None]
    if scored:
        stacked = Components(*(
            np.array(field) for field in zip(*(components[at] for at in scored))
        ))
        _tune(ensembles, EnsembleStack.of(ensembles), scored, values, stacked)


def tune_due(
    ensembles: Sequence[AdaptiveEnsemble],
    values: Sequence[float],
    arrived: np.ndarray,
    horizon: int,
) -> None:
    """:func:`update_many` on what the lane remembered: ensemble ``i``
    scores its pending ``horizon``-step prediction for step
    ``arrived[i]`` (:meth:`EnsembleStack.remember`), if it made one."""
    stack = EnsembleStack.of(ensembles)
    scored, components = stack.recall(arrived, horizon)
    if scored:
        _tune(ensembles, stack, scored, values, components)


def _tune(
    ensembles: Sequence[AdaptiveEnsemble],
    stack: EnsembleStack,
    scored: list[int],
    values: Sequence[float],
    components: Components,
) -> None:
    """The update of :func:`update_many`: the ensembles at ``scored``
    (their rows of ``stack``) score ``components [len(scored), C]``.
    Each phase renormalises the awake weights of the rows it touched."""
    for at in scored:
        ensembles[at].updates += 1
    adaptive = [i for i, at in enumerate(scored) if ensembles[at].self_adaptive]
    if not adaptive:
        return
    tuned = scored
    if len(adaptive) < len(scored):
        tuned = [scored[i] for i in adaptive]
        components = Components(*(field[adaptive] for field in components))
    rows = slice(None) if len(tuned) == stack.size else np.array(tuned)
    cells = ensembles[0].cells
    weight, asleep = stack.weight[rows], stack.asleep[rows]

    # Eqns. 6-9: a softmax over log densities (GaussianPrediction
    # .log_density) — l / sum(l) of Eqn. 8, immune to underflow.  A cell
    # asleep or without a prediction has density 0: its weight stays.
    present, mean, variance = components
    live = present & ~asleep
    scored_any = live.any(axis=1)
    if scored_any.any():
        value = np.array([values[at] for at in tuned], dtype=np.float64)[:, None]
        variance = np.where(live, variance, np.inf)
        log_density = -0.5 * np.log(2.0 * np.pi * variance) - np.float_power(
            value - mean, 2.0
        ) / (2.0 * variance)
        peak = np.where(scored_any, log_density.max(axis=1), 0.0)[:, None]
        shifted = np.exp(log_density - peak)
        total = _numpy_sum(shifted, live)
        total[~scored_any] = 1.0
        weight = np.where(live, weight + shifted / total[:, None], weight)
        weight = _normalised(weight, ~asleep, scored_any[:, None])

    flags = [(ensembles[at].sleep_enabled, ensembles[at].eta) for at in tuned]
    sleeps, eta = (np.array(column)[:, None] for column in zip(*flags))
    stack.weight[rows] = weight
    if not sleeps.any():
        return
    span, remaining = stack.sleep_span[rows], stack.sleep_remaining[rows]
    recovered_last = stack.just_recovered[rows]

    # Sleep: an awake cell under eta sleeps (unless it is the last one
    # awake) for its span, doubled if it only just woke; every other
    # awake cell halves its span towards 1.
    awake = ~asleep & sleeps
    going = awake & (weight < eta) & (awake.sum(axis=1, keepdims=True) > 1)
    span = np.where(awake & ~going, np.maximum(1, span // 2), span)
    span = np.where(going & recovered_last, span * 2, span)
    recovered_last = recovered_last & ~awake
    asleep = asleep | going
    remaining = np.where(going, span, remaining)
    weight = _normalised(np.where(going, 0.0, weight), ~asleep, going.any(1)[:, None])

    # Recovery: the other sleepers tick; those done re-enter at eta,
    # scaled so that after renormalisation they hold eta each.
    ticking = asleep & ~going & sleeps
    remaining = np.where(ticking, remaining - 1, remaining)
    woken = ticking & (remaining <= 0)
    raw = eta / np.maximum(1.0 - woken.sum(1, keepdims=True) * eta, RECOVERY_FLOOR)
    asleep = asleep & ~woken
    recovered_last = recovered_last | woken
    weight = _normalised(np.where(woken, raw, weight), ~asleep, woken.any(1)[:, None])

    for name, array in zip(_FIELDS, (weight, asleep, span, remaining, recovered_last)):
        getattr(stack, name)[rows] = array
    for row, column in zip(*np.nonzero(going)):
        logger.debug(
            "cell %s falls asleep for %d steps", cells[column], span[row, column]
        )
    for row, column in zip(*np.nonzero(woken)):
        logger.debug("cell %s wakes at weight %.4f", cells[column], raw[row, 0])


def mix_many(
    ensembles: Sequence[AdaptiveEnsemble], components: Components
) -> list[EnsembleOutput]:
    """The moment-matched mixtures (Eqn. 3) of a lane of ensembles that
    share their cells, stacked: ensemble ``i`` mixes row ``i`` of the
    ``[R, C]`` ``components``, present where it is awake — :func:`mix`
    with one :class:`EnsembleOutput` per ensemble."""
    stack, rows = lane_of(ensembles)
    awake, mean, variance = components
    mixed, spread, norm = mix(stack.weight[rows], components)
    return [
        EnsembleOutput(
            m, v, Components(awake[row], mean[row], variance[row]), norm[row]
        )
        for row, (m, v) in enumerate(zip(mixed.tolist(), spread.tolist()))
    ]


def mix(
    weight: np.ndarray, components: Components
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mean [R], variance [R], weights [R, C])`` of the mixtures of
    rows ``weight [R, C]`` over ``components [R, C]``: the weighted mean,
    the variance with the between-component spread, and the mixing
    weights (0.0 where a cell did not predict)."""
    awake, mean, variance = components
    weight = np.where(awake, weight, 0.0)
    norm = weight / _fold(weight)[:, None]
    mixed = _fold(norm * mean)
    second_moment = _fold(norm * (variance + np.float_power(mean, 2.0)))
    spread = np.maximum(second_moment - np.float_power(mixed, 2.0), MIX_SPREAD_FLOOR)
    return mixed, spread, norm
