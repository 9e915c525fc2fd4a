"""Tests for synthetic dataset generators and the registry."""

import numpy as np
import pytest

from repro.timeseries import make_dataset, mall_like, net_like, road_like
from repro.timeseries.generators import POINTS_PER_DAY


class TestGenerators:
    @pytest.mark.parametrize("gen", [road_like, mall_like, net_like])
    def test_shapes(self, gen):
        sensors = gen(3, 500, seed=42)
        assert len(sensors) == 3
        assert all(s.size == 500 for s in sensors)
        assert all(np.isfinite(s).all() for s in sensors)

    @pytest.mark.parametrize("gen", [road_like, mall_like, net_like])
    def test_deterministic(self, gen):
        a = gen(2, 300, seed=7)
        b = gen(2, 300, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_road_in_unit_interval(self):
        for s in road_like(2, 1000, seed=1):
            assert s.min() >= 0.0 and s.max() <= 1.0

    def test_mall_non_negative_integers(self):
        for s in mall_like(2, 1000, seed=1):
            assert s.min() >= 0.0
            np.testing.assert_array_equal(s, np.round(s))

    def test_net_positive(self):
        for s in net_like(2, 1000, seed=1):
            assert (s > 0).all()

    def test_daily_seasonality_dominates_mall(self):
        """MALL should autocorrelate strongly at one-day lag."""
        s = mall_like(1, 20 * POINTS_PER_DAY, seed=3)[0]
        s = (s - s.mean()) / s.std()
        lag = POINTS_PER_DAY
        corr = float(np.mean(s[:-lag] * s[lag:]))
        assert corr > 0.8


class TestDatasetRegistry:
    def test_make_dataset_road(self):
        ds = make_dataset("ROAD", n_sensors=2, n_points=800, test_points=100)
        assert ds.name == "ROAD"
        assert ds.n_sensors == 2
        history, tail = ds.sensor(0)
        assert len(history) == 700
        assert tail.size == 100

    def test_case_insensitive(self):
        assert make_dataset("net", 1, 400, 50).name == "NET"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_dataset("NOPE", 1, 400, 50)

    def test_test_points_validation(self):
        with pytest.raises(ValueError):
            make_dataset("ROAD", 1, 100, 100)

    def test_normalisation_applied(self):
        ds = make_dataset("MALL", n_sensors=1, n_points=2000, test_points=200)
        full = np.concatenate([ds.history[0].values, ds.test_tails[0]])
        assert abs(float(full.mean())) < 1e-6
        assert abs(float(full.std()) - 1.0) < 1e-6

    def test_total_points(self):
        ds = make_dataset("NET", n_sensors=3, n_points=500, test_points=50)
        # The split keeps every generated point: history + tail per sensor.
        stored = [len(h) + t.size for h, t in zip(ds.history, ds.test_tails)]
        assert stored == [500] * 3

    def test_datasets_differ(self):
        road = make_dataset("ROAD", 1, 500, 50, seed=0)
        net = make_dataset("NET", 1, 500, 50, seed=0)
        assert not np.allclose(road.history[0].values, net.history[0].values)
