"""Failure-injection tests: the system must degrade, not crash.

Sensors misbehave: they emit stuck values, spikes, dropouts, constant
streams and NaNs.  These tests feed each failure through the full
SMiLer pipeline and assert the contract: clear errors for invalid input
(NaN), finite predictions with positive variance for everything else.
"""

import numpy as np
import pytest

from repro.core import SMiLer, SMiLerConfig

from .anomalies import inject_dropout, inject_spike

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1,),
    predictor="gp", initial_train_iters=5, online_train_iters=2,
)


def healthy_history(n=600, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(np.arange(n) / 7.0) + 0.05 * rng.normal(size=n)


def run_steps(smiler, values):
    outputs = []
    for value in values:
        outputs.append(smiler.predict()[1])
        smiler.observe(float(value))
    return outputs


class TestStuckSensor:
    def test_stuck_at_zero_stream(self):
        smiler = SMiLer(healthy_history(), CONFIG)
        outputs = run_steps(smiler, np.zeros(15))
        for out in outputs:
            assert np.isfinite(out.mean)
            assert out.variance > 0

    def test_constant_history(self):
        """A sensor that never changed still yields a working predictor."""
        smiler = SMiLer(np.full(400, 2.5), CONFIG)
        out = smiler.predict()[1]
        assert out.mean == pytest.approx(2.5, abs=0.2)
        assert out.variance > 0


class TestSpikesAndDropouts:
    def test_spiked_history(self):
        injected = inject_spike(healthy_history(), start=300, magnitude=50.0, length=3)
        smiler = SMiLer(injected.values, CONFIG)
        outputs = run_steps(smiler, healthy_history(20, seed=1))
        assert all(np.isfinite(o.mean) for o in outputs)

    def test_dropout_history(self):
        injected = inject_dropout(healthy_history(), start=200, length=50)
        smiler = SMiLer(injected.values, CONFIG)
        out = smiler.predict()[1]
        assert np.isfinite(out.mean) and out.variance > 0

    def test_extreme_observation_mid_stream(self):
        smiler = SMiLer(healthy_history(seed=2), CONFIG)
        smiler.predict()
        smiler.observe(1e6)  # absurd reading
        out = smiler.predict()[1]
        assert np.isfinite(out.mean)
        assert out.variance > 0

    def test_recovers_after_extreme_observation(self):
        """Accuracy recovers; poisoned neighbourhoods self-flag via variance.

        Once the outlier is history, most steps are accurate again.  Lazy
        learning cannot *hide* a poisoned target — when a retrieved
        neighbourhood contains the 1e6 value the mean blows up — but the
        predictive variance blows up with it, so the z-score stays sane
        (the uncertainty output is doing its job).
        """
        history = healthy_history(seed=3)
        smiler = SMiLer(history, CONFIG)
        smiler.predict()
        smiler.observe(1e6)
        errors, z_scores = [], []
        future = healthy_history(30, seed=4)
        for value in future:
            out = smiler.predict()[1]
            errors.append(abs(out.mean - value))
            z_scores.append(abs(out.mean - value) / np.sqrt(out.variance))
            smiler.observe(float(value))
        late = np.asarray(errors[10:])
        assert float(np.median(late)) < 0.5
        assert float(np.mean(late < 1.0)) >= 0.8
        assert max(z_scores) < 50.0


class TestInvalidInput:
    def test_nan_history_rejected_or_flagged(self):
        history = healthy_history()
        history[100] = np.nan
        # NaNs poison DTW silently, so construction/prediction must not
        # return NaN predictions without any signal: the contract is
        # "either raise, or produce finite output".
        try:
            smiler = SMiLer(history, CONFIG)
            out = smiler.predict()[1]
        except (ValueError, FloatingPointError):
            return
        assert not np.isfinite(out.mean) or np.isfinite(out.variance)

    def test_too_short_history_raises(self):
        with pytest.raises((ValueError, IndexError)):
            SMiLer(np.zeros(8), CONFIG).predict()
