"""Structure tests for the ablation drivers (tiny workloads)."""

import numpy as np
import pytest

from repro.harness import (
    AccuracyScale,
    SearchScale,
    run_history_tradeoff,
    run_parameter_sensitivity,
    run_warmstart_ablation,
    run_window_reuse_ablation,
)

ACC = AccuracyScale(
    n_sensors=1, n_points=1200, test_points=25, steps=12,
    horizons=(1,), datasets=("ROAD",),
)
SEARCH = SearchScale(n_sensors=1, n_points=1500, continuous_steps=3)


@pytest.mark.slow
class TestWarmstart:
    def test_warmstart_is_cheaper_not_worse(self):
        result = run_warmstart_ablation(ACC)
        assert result.warm_seconds_per_query < result.cold_seconds_per_query
        # Warm starting must not cost real accuracy.
        assert result.warm_mae < result.cold_mae * 1.3
        assert "warm-start" in result.render()


class TestWindowReuse:
    def test_ring_update_beats_rebuild(self):
        result = run_window_reuse_ablation(SEARCH)
        assert result.step_sim_s < result.rebuild_sim_s / 2
        assert "Fig. 6" in result.render()


class TestParameterSensitivity:
    def test_sweep_covers_grid(self):
        result = run_parameter_sensitivity(
            SEARCH, omegas=(8, 16), rhos=(4, 8)
        )
        assert len(result.rows) == 4
        assert all(t > 0 for *_, t in result.rows)
        assert "omega" in result.render()

    def test_wider_band_filters_worse(self):
        """Larger rho means wider envelopes and weaker bounds."""
        result = run_parameter_sensitivity(SEARCH, omegas=(8,), rhos=(2, 8))
        unfiltered = {rho: u for _, rho, u, _ in result.rows}
        assert unfiltered[8] >= unfiltered[2]


class TestHistoryTradeoff:
    def test_less_history_more_capacity(self):
        result = run_history_tradeoff(ACC, fractions=(0.25, 1.0))
        by_fraction = {f: (m, b, c) for f, m, b, c in result.rows}
        assert by_fraction[0.25][1] < by_fraction[1.0][1]  # memory
        assert by_fraction[0.25][2] > by_fraction[1.0][2]  # capacity
        assert np.isfinite(by_fraction[0.25][0])
        assert "capacity" in result.render().lower()


@pytest.mark.slow
class TestMeasureComparison:
    def test_structure_and_ranking(self):
        from repro.harness import run_measure_comparison

        result = run_measure_comparison(n_points=600, steps=5)
        assert set(result.mae) == {
            "DTW (rho=8)", "Euclidean", "ERP", "EDR", "LCSS"
        }
        assert all(v >= 0 for v in result.mae.values())
        assert "Similarity measures" in result.render()
