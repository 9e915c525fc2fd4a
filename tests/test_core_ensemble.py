"""Tests for the adaptive ensemble (weights, sleep & recovery)."""

import numpy as np
import pytest

from repro.core import AdaptiveEnsemble, GaussianPrediction
from repro.core.predictor import SemiLazyPredictor


class FixedPredictor(SemiLazyPredictor):
    """Deterministic stub: always predicts N(mean, variance)."""

    def __init__(self, mean, variance=0.1):
        self.mean = mean
        self.variance = variance

    def predict(self, query, neighbours, targets):
        return GaussianPrediction(self.mean, self.variance)


def make_ensemble(means, sleep=True, adaptive=True, variance=0.1):
    cells = [(k, 8) for k in range(1, len(means) + 1)]
    table = dict(zip(cells, means))
    return (
        AdaptiveEnsemble(
            cells,
            lambda cell: FixedPredictor(table[cell], variance),
            self_adaptive=adaptive,
            sleep_enabled=sleep,
        ),
        cells,
    )


def dummy_inputs(cells):
    return {
        cell: (np.zeros(8), np.zeros((2, 8)), np.zeros(2)) for cell in cells
    }


class TestWeights:
    def test_initial_weights_uniform(self):
        ens, cells = make_ensemble([0.0, 1.0, 2.0])
        for w in ens.weights().values():
            assert w == pytest.approx(1 / 3)

    def test_good_predictor_gains_weight(self):
        ens, cells = make_ensemble([0.0, 5.0], sleep=False)
        out = ens.predict(dummy_inputs(cells))
        ens.update(0.0, out.components)  # truth favours the first cell
        weights = ens.weights()
        assert weights[cells[0]] > weights[cells[1]]
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_weights_converge_with_repetition(self):
        ens, cells = make_ensemble([0.0, 3.0], sleep=False)
        for _ in range(20):
            out = ens.predict(dummy_inputs(cells))
            ens.update(0.0, out.components)
        assert ens.weights()[cells[0]] > 0.9

    def test_non_adaptive_keeps_uniform(self):
        ens, cells = make_ensemble([0.0, 5.0], adaptive=False)
        out = ens.predict(dummy_inputs(cells))
        ens.update(0.0, out.components)
        for w in ens.weights().values():
            assert w == pytest.approx(0.5)

    def test_update_is_exponential_smoothing(self):
        """One update moves weights by the normalised likelihood then
        renormalises (Eqns. 8-9)."""
        ens, cells = make_ensemble([0.0, 1.0], sleep=False, variance=1.0)
        out = ens.predict(dummy_inputs(cells))
        truth = 0.0
        l0, l1 = (
            GaussianPrediction(m, v).density(truth)
            for m, v in zip(out.components.mean, out.components.variance)
        )
        expected0 = (0.5 + l0 / (l0 + l1)) / 2.0
        ens.update(truth, out.components)
        assert ens.weights()[cells[0]] == pytest.approx(expected0)


class TestMixture:
    def test_mixture_mean_is_weighted(self):
        ens, cells = make_ensemble([0.0, 2.0], sleep=False)
        out = ens.predict(dummy_inputs(cells))
        assert out.mean == pytest.approx(1.0)

    def test_mixture_variance_includes_disagreement(self):
        ens, cells = make_ensemble([0.0, 2.0], variance=0.01)
        out = ens.predict(dummy_inputs(cells))
        # Moment matching: between-component spread dominates 0.01.
        assert out.variance == pytest.approx(0.01 + 1.0, rel=1e-6)

    def test_missing_inputs_rejected(self):
        ens, cells = make_ensemble([0.0, 1.0])
        with pytest.raises(KeyError):
            ens.predict(dummy_inputs(cells[:1]))

    def test_single_cell(self):
        ens, cells = make_ensemble([1.5])
        out = ens.predict(dummy_inputs(cells))
        assert out.mean == 1.5
        assert not ens.sleep_enabled  # nothing to schedule with one cell


class TestSleepRecovery:
    def run_steps(self, ens, cells, truth, steps):
        for _ in range(steps):
            inputs = dummy_inputs(ens.awake_cells())
            out = ens.predict(inputs)
            ens.update(truth, out.components)

    def test_bad_predictor_falls_asleep(self):
        ens, cells = make_ensemble([0.0, 0.0, 50.0], variance=0.01)
        self_cells = cells
        self.run_steps(ens, self_cells, truth=0.0, steps=5)
        bad = self_cells[2]
        assert ens.state(bad).asleep
        assert bad not in ens.awake_cells()

    def test_sleeper_recovers_at_eta(self):
        ens, cells = make_ensemble([0.0, 0.0, 50.0], variance=0.01)
        self.run_steps(ens, cells, truth=0.0, steps=2)  # falls asleep (span 1)
        assert ens.state(cells[2]).asleep
        self.run_steps(ens, cells, truth=0.0, steps=1)  # wakes up
        st = ens.state(cells[2])
        assert not st.asleep
        assert st.weight == pytest.approx(ens.eta)
        assert st.just_recovered

    def test_sleep_span_doubles_on_immediate_resleep(self):
        ens, cells = make_ensemble([0.0, 0.0, 50.0], variance=0.01)
        spans = []
        for _ in range(20):
            self.run_steps(ens, cells, truth=0.0, steps=1)
            spans.append(ens.state(cells[2]).sleep_span)
        assert max(spans) >= 4  # doubled at least twice

    def test_surviving_predictor_halves_span(self):
        ens, cells = make_ensemble([0.0, 0.1], variance=1.0)
        ens.state(cells[0]).sleep_span = 8
        self.run_steps(ens, cells, truth=0.0, steps=3)
        assert ens.state(cells[0]).sleep_span == 1

    def test_never_all_asleep(self):
        ens, cells = make_ensemble([10.0, 20.0, 30.0], variance=0.01)
        self.run_steps(ens, cells, truth=0.0, steps=30)
        assert len(ens.awake_cells()) >= 1

    def test_awake_weights_always_normalised(self):
        ens, cells = make_ensemble([0.0, 5.0, 50.0], variance=0.01)
        for _ in range(15):
            self.run_steps(ens, cells, truth=0.0, steps=1)
            assert sum(ens.weights().values()) == pytest.approx(1.0)


class TestValidation:
    def test_empty_cells(self):
        with pytest.raises(ValueError):
            AdaptiveEnsemble([], lambda c: FixedPredictor(0.0))

    def test_duplicate_cells(self):
        with pytest.raises(ValueError):
            AdaptiveEnsemble(
                [(1, 8), (1, 8)], lambda c: FixedPredictor(0.0)
            )


from hypothesis import settings as hsettings
from hypothesis import strategies as hst
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule


class EnsembleMachine(RuleBasedStateMachine):
    """Random prediction/update traffic must never break the invariants."""

    def __init__(self):
        super().__init__()
        cells = [(k, 8) for k in (1, 2, 3, 4)]
        means = {cell: float(i) for i, cell in enumerate(cells)}
        self.ensemble = AdaptiveEnsemble(
            cells,
            lambda cell: FixedPredictor(means[cell], 0.05),
            self_adaptive=True,
            sleep_enabled=True,
        )

    @rule(truth=hst.floats(-5.0, 5.0, allow_nan=False))
    def predict_and_update(self, truth):
        inputs = {
            cell: (np.zeros(8), np.zeros((2, 8)), np.zeros(2))
            for cell in self.ensemble.awake_cells()
        }
        out = self.ensemble.predict(inputs)
        self.ensemble.update(truth, out.components)

    @invariant()
    def someone_is_awake(self):
        assert len(self.ensemble.awake_cells()) >= 1

    @invariant()
    def awake_weights_normalised(self):
        weights = self.ensemble.weights()
        if weights:
            assert abs(sum(weights.values()) - 1.0) < 1e-9
            assert all(w >= 0 for w in weights.values())

    @invariant()
    def sleep_state_consistent(self):
        for cell in self.ensemble.cells:
            st = self.ensemble.state(cell)
            assert st.sleep_span >= 1
            if st.asleep:
                assert st.sleep_remaining >= 0
                assert st.weight == 0.0


EnsembleMachine.TestCase.settings = hsettings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestEnsembleStateMachine = EnsembleMachine.TestCase
