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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .predictor import GaussianPrediction, SemiLazyPredictor

__all__ = ["Cell", "CellState", "AdaptiveEnsemble", "EnsembleOutput"]

logger = logging.getLogger(__name__)

#: A matrix cell: (k_i, d_j) — neighbour count and segment length.
Cell = tuple[int, int]


@dataclass
class CellState:
    """Book-keeping for one predictor ``f_{i,j}``."""

    predictor: SemiLazyPredictor
    weight: float
    asleep: bool = False
    sleep_span: int = 1       # sigma_{i,j}: how long the next sleep lasts
    sleep_remaining: int = 0
    just_recovered: bool = False


@dataclass
class EnsembleOutput:
    """Mixture prediction plus the per-cell components (for auto-tuning)."""

    mean: float
    variance: float
    components: dict[Cell, GaussianPrediction]
    weights: dict[Cell, float]


class AdaptiveEnsemble:
    """The ensemble matrix ``lambda`` with self-adaptive weights."""

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
        uniform = 1.0 / len(cells)
        self._states = {
            cell: CellState(predictor=predictor_factory(cell), weight=uniform)
            for cell in cells
        }
        self.self_adaptive = self_adaptive
        self.sleep_enabled = sleep_enabled and self_adaptive and len(cells) > 1
        #: eta of Section 5.1.2 (n*m is the matrix size).
        self.eta = 1.0 / (2.0 * len(cells))
        self.updates = 0

    # ---------------------------------------------------------------- views
    @property
    def cells(self) -> list[Cell]:
        """All matrix cells in creation order."""
        return list(self._states)

    def awake_cells(self) -> list[Cell]:
        """Cells that must be evaluated this step (sleepers cost nothing)."""
        return [cell for cell, st in self._states.items() if not st.asleep]

    def weights(self) -> dict[Cell, float]:
        """Current normalised weights of the awake cells."""
        return {
            cell: st.weight for cell, st in self._states.items() if not st.asleep
        }

    def state(self, cell: Cell) -> CellState:
        """Mutable book-keeping record of one cell."""
        return self._states[cell]

    # -------------------------------------------------------------- predict
    def predict(
        self, inputs: dict[Cell, tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> EnsembleOutput:
        """Mixture prediction from per-cell ``(query, X_{k,d}, Y_h)`` data.

        ``inputs`` must cover every awake cell.  The output Gaussian
        moment-matches the weighted mixture: its mean is the weighted mean
        and its variance includes the between-component spread.
        """
        awake = self.awake_cells()
        missing = [cell for cell in awake if cell not in inputs]
        if missing:
            raise KeyError(f"missing kNN inputs for awake cells: {missing}")
        return self.mix({
            cell: self._states[cell].predictor.predict(*inputs[cell])
            for cell in awake
        })

    def mix(self, components: dict[Cell, GaussianPrediction]) -> EnsembleOutput:
        """The mixing half of :meth:`predict`: the moment-matched mixture
        of the awake cells' predictions, however they were computed
        (:func:`repro.core.smiler.predict_many` computes them a cell at a
        time for a whole lane).  ``components`` must hold exactly the
        awake cells."""
        weights = self.weights()
        if components.keys() != weights.keys():
            raise KeyError(
                f"components {list(components)} are not the awake cells "
                f"{list(weights)}"
            )
        total = sum(weights.values())
        norm = {cell: w / total for cell, w in weights.items()}
        mean = sum(norm[c] * components[c].mean for c in norm)
        second_moment = sum(
            norm[c] * (components[c].variance + components[c].mean ** 2)
            for c in norm
        )
        variance = max(second_moment - mean**2, 1e-10)
        return EnsembleOutput(
            mean=mean, variance=variance, components=components, weights=norm
        )

    # --------------------------------------------------------------- update
    def update(
        self, true_value: float, components: dict[Cell, GaussianPrediction]
    ) -> None:
        """Auto-tune after observing ``true_value`` (Eqns. 6-9 + Section 5.1.2).

        ``components`` are the per-cell predictions produced for this very
        time step (from :class:`EnsembleOutput.components`).
        """
        self.updates += 1
        if not self.self_adaptive:
            return
        awake = [cell for cell in self.awake_cells() if cell in components]
        if awake:
            # Normalised likelihoods via a softmax over log densities —
            # identical to l / sum(l) of Eqn. 8 but immune to underflow.
            log_dens = np.array(
                [components[c].log_density(true_value) for c in awake]
            )
            shifted = np.exp(log_dens - log_dens.max())
            norm_lik = shifted / shifted.sum()
            for cell, lik in zip(awake, norm_lik):
                self._states[cell].weight += float(lik)
            self._normalise_awake()

        if self.sleep_enabled:
            just_slept = self._sleep_phase()
            self._recovery_phase(just_slept)

    def _normalise_awake(self) -> None:
        awake = self.awake_cells()
        total = sum(self._states[c].weight for c in awake)
        if total <= 0:
            uniform = 1.0 / len(awake)
            for cell in awake:
                self._states[cell].weight = uniform
            return
        for cell in awake:
            self._states[cell].weight /= total

    def _sleep_phase(self) -> set[Cell]:
        """Put under-performing predictors to sleep; adapt sleep spans.

        Returns the cells that fell asleep *this* step so the recovery
        phase does not tick them immediately (a span of 1 must mean one
        full skipped prediction step).
        """
        going_to_sleep = []
        for cell in self.awake_cells():
            st = self._states[cell]
            if st.weight < self.eta and len(self.awake_cells()) > 1:
                going_to_sleep.append(cell)
            else:
                # Survived a step awake: halve the span towards 1.
                st.sleep_span = max(1, st.sleep_span // 2)
                st.just_recovered = False
        for cell in going_to_sleep:
            st = self._states[cell]
            if st.just_recovered:
                # Fell straight back asleep: the sleep trap — double.
                st.sleep_span *= 2
            st.asleep = True
            st.sleep_remaining = st.sleep_span
            st.just_recovered = False
            st.weight = 0.0
            logger.debug(
                "cell %s falls asleep for %d steps", cell, st.sleep_span
            )
        if going_to_sleep:
            self._normalise_awake()
        return set(going_to_sleep)

    def _recovery_phase(self, just_slept: set[Cell]) -> None:
        """Tick sleepers; recovered ones re-enter at weight ``eta``."""
        recovered = []
        for cell, st in self._states.items():
            if not st.asleep or cell in just_slept:
                continue
            st.sleep_remaining -= 1
            if st.sleep_remaining <= 0:
                recovered.append(cell)
        if not recovered:
            return
        kappa = len(recovered)
        raw = self.eta / max(1.0 - kappa * self.eta, 1e-9)
        for cell in recovered:
            st = self._states[cell]
            st.asleep = False
            st.weight = raw
            st.just_recovered = True
            logger.debug("cell %s wakes at weight %.4f", cell, raw)
        self._normalise_awake()
