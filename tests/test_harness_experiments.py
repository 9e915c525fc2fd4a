"""Integration tests: every table/figure driver runs and has the right shape.

These use tiny workloads — the paper-scale shapes are exercised in
``benchmarks/``; here we verify structure, plumbing and the invariants
that must hold at any scale.
"""

import numpy as np
import pytest

from repro.core import SMiLer, SMiLerConfig
from repro.harness import (
    AccuracyScale,
    SearchScale,
    render_fig1,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_table3,
    run_table4,
)

SEARCH = SearchScale(n_sensors=1, n_points=1200, continuous_steps=3)
ACCURACY = AccuracyScale(
    n_sensors=1, n_points=1200, test_points=30, steps=15,
    horizons=(1, 3), datasets=("ROAD",),
)


@pytest.fixture(scope="module")
def table3():
    return run_table3(SEARCH)


@pytest.fixture(scope="module")
def fig7():
    return run_fig7(SEARCH, ks=(8, 16), scan_steps=1)


class TestTable3(object):
    def test_structure(self, table3):
        assert set(table3.data) == {"ROAD", "MALL", "NET"}
        for per_mode in table3.data.values():
            assert set(per_mode) == {"eq", "ec", "en"}

    def test_en_filters_best(self, table3):
        for dataset, per_mode in table3.data.items():
            assert per_mode["en"][1] <= per_mode["eq"][1] + 1e-9
            assert per_mode["en"][1] <= per_mode["ec"][1] + 1e-9

    def test_render(self, table3):
        out = table3.render()
        assert "Table 3" in out and "LB_en" in out


class TestFig7:
    def test_structure(self, fig7):
        assert fig7.ks == (8, 16)
        for per_method in fig7.times.values():
            assert set(per_method) == {
                "SMiLer-Idx", "SMiLer-Dir", "FastGPUScan", "GPUScan",
                "FastCPUScan",
            }
            for series in per_method.values():
                assert len(series) == 2
                assert all(t > 0 for t in series)

    def test_banded_scan_beats_unbanded(self, fig7):
        for dataset in fig7.times:
            assert fig7.speedup_over(dataset, "FastGPUScan", "GPUScan") > 1.0

    def test_index_beats_full_scans(self, fig7):
        for dataset in fig7.times:
            assert fig7.speedup_over(dataset, "SMiLer-Idx", "GPUScan") > 1.0
            assert fig7.speedup_over(dataset, "SMiLer-Idx", "FastCPUScan") > 1.0

    def test_render(self, fig7):
        assert "Fig. 7" in fig7.render()


class TestFig8:
    def test_index_faster_than_direct(self):
        result = run_fig8(SEARCH)
        for dataset, (idx, direct) in result.times.items():
            assert idx < direct, dataset
        assert "Fig. 8" in result.render()


@pytest.mark.slow
class TestAccuracyDrivers:
    def test_fig10_structure(self):
        result = run_fig10(ACCURACY)
        assert result.horizons == (1, 3)
        methods = set(result.mae_series["ROAD"])
        assert {"SMiLer-GP", "SMiLer-AR", "LazyKNN", "FullHW", "SegHW",
                "OnlineSVR", "OnlineRR"} == methods
        for series in result.mae_series["ROAD"].values():
            assert all(np.isfinite(series))
        assert "MNLPD" in result.render()

    def test_fig11_ablation_names(self):
        result = run_fig11(ACCURACY)
        methods = set(result.mae_series["ROAD"])
        assert "SMiLer-GP" in methods
        assert "SMiLer-GP (NE)" in methods
        assert "SMiLer-GP (NS)" in methods
        assert "SMiLer-AR (NE)" in methods

    def test_table4_structure(self):
        result = run_table4(ACCURACY)
        per_method = result.data["ROAD"]
        # SMiLer has no training phase.
        assert per_method["SMiLer-GP"][0] == 0.0
        assert per_method["SMiLer-AR"][0] == 0.0
        # Offline models do.
        assert per_method["PSGP"][0] > 0.0
        assert per_method["NysSVR"][0] > 0.0
        # Everyone has a positive prediction time.
        assert all(prd > 0 for _, prd in per_method.values())
        assert "Table 4" in result.render()

    def test_fig12_structure(self):
        result = run_fig12(ACCURACY, points_per_sensor=52_560)
        assert set(result.step_times["ROAD"]) == {"SMiLer-AR", "SMiLer-GP"}
        for search_s, wall_s in result.step_times["ROAD"].values():
            assert search_s > 0 and wall_s > 0
        # ~1000 one-year ROAD sensors fit a 6 GB card (Section 6.4.1).
        assert 500 <= result.capacity["ROAD"] <= 5000
        assert "Fig. 12" in result.render()

    def test_fig13_cost_grows_with_active_points(self):
        result = run_fig13(ACCURACY, active_points=(4, 32))
        times, maes = result.psgp["ROAD"]
        assert times[1] > times[0]
        assert all(np.isfinite(maes))
        assert result.smiler_mae["ROAD"] > 0
        assert "Fig. 13" in result.render()


class TestMemoryModel:
    def test_linear_in_points(self):
        small = SMiLer.estimate_memory_bytes(10_000)
        large = SMiLer.estimate_memory_bytes(20_000)
        assert large == pytest.approx(2 * small, rel=0.05)

    def test_fig1_render(self):
        out = render_fig1()
        assert "2004" in out and "2014" in out and "TFLOPS" in out


@pytest.mark.slow
class TestFig9Offline:
    def test_fig9_structure(self):
        result = run_fig9(ACCURACY)
        methods = set(result.mae_series["ROAD"])
        assert {"SMiLer-GP", "SMiLer-AR", "PSGP", "VLGP", "NysSVR",
                "SgdSVR", "SgdRR"} == methods


class TestMemoryModelCrossCheck:
    def test_analytic_matches_real_index(self):
        """The admission estimate must track the built index's inventory:
        series + envelope + posting lists at nominal size."""
        from repro.index import WindowLevelIndex

        n = 8000
        config = SMiLerConfig()
        series = np.random.default_rng(0).normal(size=n)
        index = WindowLevelIndex(
            series, config.master_length, config.omega, config.rho
        )
        index.build(series[-config.master_length :])
        # The live index holds a growth buffer (2x series capacity), so
        # count the built posting matrices at their nominal shape.
        real_postings = 2 * index.n_sw * index.n_dw * 8
        assert SMiLer.estimate_memory_bytes(n, config) == 8 * (3 * n) + real_postings


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
