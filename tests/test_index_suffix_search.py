"""Tests for the full Suffix kNN Search pipeline (filter/verify/select)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SimulatedGpuBackend
from repro.dtw import dtw_batch
from repro.index import SuffixKnnEngine, SuffixSearchConfig


def make_series(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(np.arange(n) / 8.0) + 0.2 * rng.normal(size=n)


def bruteforce_answer(series, master, d, k, rho, margin):
    """Ground truth: banded DTW on every valid candidate."""
    query = master[master.size - d :]
    last_valid = series.size - d - margin
    starts = np.arange(last_valid + 1)
    segments = np.stack([series[t : t + d] for t in starts])
    distances = dtw_batch(query, segments, rho)
    order = np.argsort(distances, kind="stable")[: min(k, starts.size)]
    return starts[order], distances[order]


SMALL_CFG = SuffixSearchConfig(
    item_lengths=(8, 16, 24), k_max=6, omega=4, rho=2, margin=2
)


class TestConfig:
    def test_defaults_match_paper_table_2(self):
        cfg = SuffixSearchConfig()
        assert cfg.item_lengths == (32, 64, 96)
        assert cfg.omega == 16
        assert cfg.rho == 8
        assert cfg.master_length == 96

    def test_validation(self):
        with pytest.raises(ValueError):
            SuffixSearchConfig(k_max=0)
        with pytest.raises(ValueError):
            SuffixSearchConfig(margin=0)
        with pytest.raises(ValueError):
            SuffixSearchConfig(lb_mode="bogus")


class TestExactness:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_initial_search_matches_bruteforce(self, seed):
        series = make_series(180, seed=seed)
        engine = SuffixKnnEngine(series, SMALL_CFG)
        answers = engine.search()
        for d, answer in answers.items():
            exp_starts, exp_dist = bruteforce_answer(
                series, engine.master_query, d, SMALL_CFG.k_max,
                SMALL_CFG.rho, SMALL_CFG.margin,
            )
            np.testing.assert_allclose(
                np.sort(answer.distances), np.sort(exp_dist), atol=1e-9
            )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 100), n_steps=st.integers(1, 8))
    def test_continuous_search_stays_exact(self, seed, n_steps):
        """Threshold reuse across steps must not lose true neighbours."""
        series = make_series(160, seed=seed)
        future = make_series(n_steps, seed=seed + 1000)
        engine = SuffixKnnEngine(series, SMALL_CFG)
        engine.search()
        current = series.copy()
        for p in future:
            answers = engine.step(p)
            current = np.append(current, p)
        master = current[-SMALL_CFG.master_length :]
        for d, answer in answers.items():
            _, exp_dist = bruteforce_answer(
                current, master, d, SMALL_CFG.k_max,
                SMALL_CFG.rho, SMALL_CFG.margin,
            )
            np.testing.assert_allclose(
                np.sort(answer.distances), np.sort(exp_dist), atol=1e-9
            )

    def test_search_without_threshold_reuse_also_exact(self):
        cfg = SuffixSearchConfig(
            item_lengths=(8, 16), k_max=4, omega=4, rho=2, margin=1,
            reuse_threshold=False,
        )
        series = make_series(140, seed=9)
        engine = SuffixKnnEngine(series, cfg)
        engine.search()
        answers = engine.step(0.3)
        current = np.append(series, 0.3)
        for d, answer in answers.items():
            _, exp_dist = bruteforce_answer(
                current, current[-16:], d, 4, 2, 1
            )
            np.testing.assert_allclose(
                np.sort(answer.distances), np.sort(exp_dist), atol=1e-9
            )


class TestPipelineBehaviour:
    def test_filtering_reduces_candidates(self):
        """After threshold warm-up, most candidates are filtered."""
        from repro.timeseries import road_like

        raw = road_like(1, 3010, seed=2)[0]
        raw = (raw - raw.mean()) / raw.std()
        series, future = raw[:3000], raw[3000:]
        cfg = SuffixSearchConfig(
            item_lengths=(32, 64, 96), k_max=8, omega=16, rho=8, margin=1
        )
        engine = SuffixKnnEngine(series, cfg)
        engine.search()
        for p in future:
            answers = engine.step(p)
        for answer in answers.values():
            assert answer.candidates_unfiltered < answer.candidates_total / 2

    def test_lb_en_filters_at_least_as_well_as_one_sided(self):
        """Table 3's headline: LB_en leaves fewer unfiltered candidates.

        Runs with ``lb_kim=False`` so the comparison isolates the LB_w
        filter: the mode-agnostic LB_Kim tier prunes against each mode's
        own threshold, which can reorder raw survivor counts between
        modes.
        """
        series = make_series(2500, seed=3)
        unfiltered = {}
        for mode in ("en", "eq", "ec"):
            cfg = SuffixSearchConfig(
                item_lengths=(32, 64, 96), k_max=8, omega=16, rho=8,
                margin=1, lb_mode=mode, lb_kim=False,
            )
            engine = SuffixKnnEngine(series, cfg)
            answers = engine.search()
            unfiltered[mode] = sum(
                a.candidates_unfiltered for a in answers.values()
            )
        assert unfiltered["en"] <= unfiltered["eq"]
        assert unfiltered["en"] <= unfiltered["ec"]

    def test_item_query_is_suffix(self):
        series = make_series(200)
        engine = SuffixKnnEngine(series, SMALL_CFG)
        np.testing.assert_array_equal(
            engine.item_query(8), engine.master_query[-8:]
        )

    def test_answers_sorted_by_distance(self):
        series = make_series(250, seed=4)
        engine = SuffixKnnEngine(series, SMALL_CFG)
        for answer in engine.search().values():
            assert (np.diff(answer.distances) >= 0).all()

    def test_top_subsets(self):
        series = make_series(250, seed=5)
        engine = SuffixKnnEngine(series, SMALL_CFG)
        answer = engine.search()[16]
        starts, dists = answer.top(3)
        assert starts.size == 3
        np.testing.assert_array_equal(starts, answer.starts[:3])

    def test_margin_respected(self):
        series = make_series(220, seed=6)
        engine = SuffixKnnEngine(series, SMALL_CFG)
        for d, answer in engine.search().items():
            assert (answer.starts + d - 1 + SMALL_CFG.margin <= series.size - 1).all()

    def test_series_too_short_raises(self):
        cfg = SuffixSearchConfig(item_lengths=(8, 16), k_max=2, omega=4, rho=2, margin=10)
        with pytest.raises(ValueError):
            SuffixKnnEngine(make_series(20), cfg).search()

    def test_custom_master_query(self):
        series = make_series(200, seed=7)
        master = make_series(24, seed=8)
        engine = SuffixKnnEngine(series, SMALL_CFG, master_query=master)
        np.testing.assert_array_equal(engine.master_query, master)
        engine.search()  # must not raise


class TestExactnessUnderAnomalies:
    """Dirty data must not break exactness — bounds are data-agnostic."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 100),
        magnitude=st.floats(5.0, 1e4),
    )
    def test_spiked_series_stays_exact(self, seed, magnitude):
        from .anomalies import inject_spike

        base = make_series(150, seed=seed)
        injected = inject_spike(base, start=60, magnitude=magnitude, length=3)
        series = injected.values
        engine = SuffixKnnEngine(series, SMALL_CFG)
        answers = engine.search()
        for d, answer in answers.items():
            _, exp_dist = bruteforce_answer(
                series, engine.master_query, d, SMALL_CFG.k_max,
                SMALL_CFG.rho, SMALL_CFG.margin,
            )
            np.testing.assert_allclose(
                np.sort(answer.distances), np.sort(exp_dist),
                rtol=1e-9, atol=1e-9,
            )

    def test_dropout_series_stays_exact(self):
        from .anomalies import inject_dropout

        base = make_series(160, seed=11)
        series = inject_dropout(base, start=40, length=30).values
        engine = SuffixKnnEngine(series, SMALL_CFG)
        answers = engine.step(0.25)
        current = np.append(series, 0.25)
        for d, answer in answers.items():
            _, exp_dist = bruteforce_answer(
                current, current[-SMALL_CFG.master_length:], d,
                SMALL_CFG.k_max, SMALL_CFG.rho, SMALL_CFG.margin,
            )
            np.testing.assert_allclose(
                np.sort(answer.distances), np.sort(exp_dist), atol=1e-9
            )
