"""Tests for the AR and GP semi-lazy predictors and config."""

import numpy as np
import pytest

from repro.core import (
    AggregationPredictor,
    GaussianPrediction,
    GaussianProcessPredictor,
    SMiLerConfig,
)
from repro.tolerances import AR_VARIANCE_FLOOR


def knn_data(k=16, d=8, seed=0, noise=0.01):
    """Neighbours drawn around a smooth function of the segment mean."""
    rng = np.random.default_rng(seed)
    query = np.sin(np.linspace(0, 2, d))
    neighbours = query[None, :] + 0.1 * rng.normal(size=(k, d))
    targets = neighbours.mean(axis=1) + noise * rng.normal(size=k)
    return query, neighbours, targets


class TestGaussianPrediction:
    def test_log_density_matches_formula(self):
        pred = GaussianPrediction(1.0, 4.0)
        expected = -0.5 * np.log(2 * np.pi * 4.0) - (3.0 - 1.0) ** 2 / 8.0
        assert pred.log_density(3.0) == pytest.approx(expected)
        assert pred.density(3.0) == pytest.approx(np.exp(expected))

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianPrediction(np.nan, 1.0)
        with pytest.raises(ValueError):
            GaussianPrediction(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianPrediction(0.0, -1.0)


class TestAggregationPredictor:
    def test_mean_and_variance_are_moments(self):
        query, neighbours, targets = knn_data()
        pred = AggregationPredictor().predict(query, neighbours, targets)
        assert pred.mean == pytest.approx(float(targets.mean()))
        assert pred.variance == pytest.approx(float(np.var(targets)), abs=1e-9)

    def test_variance_floor(self):
        query, neighbours, _ = knn_data(k=4)
        targets = np.full(4, 2.5)
        pred = AggregationPredictor().predict(query, neighbours, targets)
        assert pred.mean == 2.5
        assert pred.variance == AR_VARIANCE_FLOOR == 1e-8

    def test_shape_validation(self):
        query, neighbours, targets = knn_data()
        ar = AggregationPredictor()
        with pytest.raises(ValueError):
            ar.predict(query, neighbours, targets[:-1])
        with pytest.raises(ValueError):
            ar.predict(query[:-1], neighbours, targets)
        with pytest.raises(ValueError):
            ar.predict(query, neighbours[:0], targets[:0])

    def test_stacks_of_one_k_are_each_row_alone(self):
        """Rows of ``k = 8`` from two item lengths reduce in one
        ``predict_rows`` batch, a row of ``k = 4`` in one of its own; each
        row is ``predict`` on that row to the bit, and the neighbours are
        never gathered."""

        def never_gathered():
            raise AssertionError("gathered")

        rows = [
            knn_data(k=k, d=d, seed=seed) for k, d, seed in ((8, 8, 1), (8, 5, 2), (4, 8, 3))
        ]
        ar = AggregationPredictor()
        for batch in (rows[:2], rows[2:]):
            targets = np.stack([t for _, _, t in batch])
            mean, variance, errors = AggregationPredictor.predict_rows(
                [ar] * len(batch), targets, never_gathered
            )
            assert errors == {}
            for row, (query, neighbours, values) in enumerate(batch):
                want = ar.predict(query, neighbours, values)
                assert (mean[row].hex(), variance[row].hex()) == (
                    want.mean.hex(), want.variance.hex()
                )


class TestGaussianProcessPredictor:
    def test_accurate_on_smooth_relation(self):
        query, neighbours, targets = knn_data(k=24, noise=0.001)
        gp = GaussianProcessPredictor()
        pred = gp.predict(query, neighbours, targets)
        assert pred.mean == pytest.approx(float(query.mean()), abs=0.05)
        assert 0 < pred.variance < 1.0

    def test_beats_ar_on_structured_targets(self):
        """When targets depend on the segment, GP interpolation wins."""
        rng = np.random.default_rng(1)
        d, k = 6, 32
        neighbours = rng.normal(size=(k, d))
        targets = neighbours @ np.linspace(0.1, 0.6, d)
        query = rng.normal(size=d)
        truth = float(query @ np.linspace(0.1, 0.6, d))
        gp_err = abs(
            GaussianProcessPredictor().predict(query, neighbours, targets).mean
            - truth
        )
        ar_err = abs(
            AggregationPredictor().predict(query, neighbours, targets).mean
            - truth
        )
        assert gp_err < ar_err

    def test_warm_start_reuses_hyperparameters(self):
        query, neighbours, targets = knn_data(k=16)
        gp = GaussianProcessPredictor(initial_train_iters=20, online_train_iters=5)
        gp.predict(query, neighbours, targets)
        first_kernel = gp.kernel
        iters_after_first = gp.cg_iterations
        gp.predict(query, neighbours, targets + 0.001)
        assert gp.train_calls == 2
        # Online refinement is capped at the fixed five-step budget.
        assert gp.cg_iterations - iters_after_first <= 5
        assert gp.kernel is not None and first_kernel is not None

    def test_each_training_starts_at_twice_the_last_step(self, monkeypatch):
        """One step memory per predictor: passed in doubled (capped at
        1.0), replaced by what the run accepted; a cold start goes back
        to 1.0."""
        from repro.core import gp_predictor

        asked = []
        run = gp_predictor.conjugate_gradient

        def recording(*args, **kwargs):
            asked.append(kwargs["initial_step"])
            return run(*args, **kwargs)

        monkeypatch.setattr(gp_predictor, "conjugate_gradient", recording)
        query, neighbours, targets = knn_data(k=16)
        gp = GaussianProcessPredictor()
        assert gp._step == 1.0
        steps = []
        for shift in range(4):
            gp.predict(query, neighbours, targets + 0.01 * shift)
            steps.append(gp._step)
        assert asked == [1.0] + [min(1.0, 2.0 * s) for s in steps[:-1]]
        assert min(steps) < 1.0
        gp._log_params = None  # a cold start ignores the memory
        gp.predict(query, neighbours, targets)
        assert asked[-1] == 1.0

    def test_single_neighbour_fallback(self):
        gp = GaussianProcessPredictor()
        pred = gp.predict(np.zeros(4), np.ones((1, 4)), np.array([7.0]))
        assert pred.mean == 7.0
        assert pred.variance == 1.0

    def test_duplicate_neighbours_do_not_crash(self):
        gp = GaussianProcessPredictor()
        neighbours = np.tile(np.arange(4.0), (8, 1))
        targets = np.full(8, 1.5)
        pred = gp.predict(np.arange(4.0), neighbours, targets)
        assert np.isfinite(pred.mean)
        assert pred.variance > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianProcessPredictor(initial_train_iters=-1)


class TestConfig:
    def test_paper_defaults(self):
        cfg = SMiLerConfig()
        assert cfg.elv == (32, 64, 96)
        assert cfg.ekv == (8, 16, 32)
        assert cfg.rho == 8 and cfg.omega == 16
        assert cfg.master_length == 96
        assert cfg.k_max == 32
        assert len(cfg.grid) == 9

    def test_single_mode_grid(self):
        cfg = SMiLerConfig(ensemble=False)
        assert cfg.grid == [(32, 64)]
        assert cfg.effective_elv() == (64,)

    def test_margin_is_max_horizon(self):
        assert SMiLerConfig(horizons=(1, 5, 30)).margin == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            SMiLerConfig(elv=())
        with pytest.raises(ValueError):
            SMiLerConfig(elv=(64, 32))
        with pytest.raises(ValueError):
            SMiLerConfig(elv=(8, 16), omega=16)
        with pytest.raises(ValueError):
            SMiLerConfig(horizons=(0,))
        with pytest.raises(ValueError):
            SMiLerConfig(predictor="svm")
        with pytest.raises(ValueError):
            SMiLerConfig(ekv=(-1,))
