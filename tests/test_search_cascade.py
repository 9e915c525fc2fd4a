"""The tiered pruning cascade: exactness, admissibility, edge cases.

The contract under test: the cascade (LB_Kim → LB_w → banded-DTW
verification) is a pure optimisation — every answer set is
**bit-identical** (starts *and* distances) to the full banded-DTW
reference scan :func:`repro.index.reference.suffix_knn_reference`,
under both compute backends and both settings of the tier switch.
Engine parity (inline/thread/process execution) over the same search
pipeline is pinned separately by ``tests/test_exec_parity.py``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import make_backend
from repro.dtw import (
    compute_envelope,
    compute_envelope_batch,
    dtw_batch,
    dtw_batch_pruned,
    dtw_distance,
    envelope_shift,
    lb_en,
    lb_eq,
    lb_improved_profile,
    lb_kim,
    lb_kim_profile,
)
from repro.faults import FaultInjectingBackend, FaultProfile
from repro.index import SuffixKnnEngine, SuffixSearchConfig
from repro.index.reference import suffix_knn_reference
from repro.index.suffix_search import search_many


def make_series(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(0.3 * rng.normal(size=n)) + np.sin(np.arange(n) / 9.0)


SMALL_CFG = SuffixSearchConfig(
    item_lengths=(8, 16, 24), k_max=6, omega=4, rho=2, margin=2
)

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def assert_matches_reference(engine, answers, margin, label=""):
    """Every answer must equal the full-scan reference bit-for-bit."""
    series = engine.series
    for d, answer in answers.items():
        ref_starts, ref_dist = suffix_knn_reference(
            series, engine.item_query(d), engine.config.k_max,
            engine.config.rho, margin=margin,
        )
        np.testing.assert_array_equal(
            answer.starts, ref_starts, err_msg=f"{label} d={d}"
        )
        np.testing.assert_array_equal(
            answer.distances, ref_dist, err_msg=f"{label} d={d}"
        )


def adversarial_streams():
    """260 history points + 6 future ones, per shape: the plain walk,
    magnitudes at which ``tau + _FILTER_SLACK`` (absolute 1e-12) sits
    below one ULP of the distances, and two shapes full of exact DTW
    ties — a tiled period whose perturbed period ends make ``LB_Kim ==
    DTW`` for some candidates, and integer-valued plateaus."""
    walk = np.concatenate([make_series(260, seed=1), make_series(6, seed=2)])
    tiled = np.tile(make_series(25, seed=3), 11)[: walk.size]
    ends = tiled[24::25]
    ends += 0.05 * np.random.default_rng(4).normal(size=ends.size)
    return {
        "walk": walk,
        "x1e6": walk * 1e6,
        "x1e8": walk * 1e8,
        "x1e-6": walk * 1e-6,
        "+1e6": walk + 1e6,
        "x1e3+1e9": walk * 1e3 + 1e9,
        "tiled": tiled,
        "steps": np.floor(walk),
    }


class TestDifferentialExactness:
    """Cascade answers == reference full scan, bit for bit."""

    @pytest.mark.parametrize(
        "backend_name, lb_kim",
        [
            pytest.param(
                backend, lb_kim,
                id=backend + ("" if lb_kim else "-no_kim"),
            )
            for backend in ("simulated", "native")
            for lb_kim in (True, False)
        ],
    )
    def test_continuous_run_matches_reference(self, backend_name, lb_kim):
        """Both tier-switch settings, on every adversarial shape."""
        cfg = dataclasses.replace(SMALL_CFG, lb_kim=lb_kim)
        for label, stream in adversarial_streams().items():
            engine = SuffixKnnEngine(
                stream[:260], cfg, backend=make_backend(backend_name)
            )
            assert_matches_reference(
                engine, engine.search(), cfg.margin, label
            )
            for p in stream[260:]:
                answers = engine.step(p)
                assert_matches_reference(engine, answers, cfg.margin, label)

    def test_backends_bit_identical_with_cascade(self):
        series = make_series(220, seed=5)
        engines = {
            name: SuffixKnnEngine(series, SMALL_CFG, backend=make_backend(name))
            for name in ("simulated", "native")
        }
        for p in make_series(5, seed=6):
            answers = {n: e.step(p) for n, e in engines.items()}
            for d in SMALL_CFG.item_lengths:
                np.testing.assert_array_equal(
                    answers["simulated"][d].starts, answers["native"][d].starts
                )
                np.testing.assert_array_equal(
                    answers["simulated"][d].distances,
                    answers["native"][d].distances,
                )


class TestTierAdmissibility:
    """Every cascade tier is a provable lower bound of banded DTW."""

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.lists(finite_floats, min_size=2, max_size=48),
        rho=st.integers(0, 8),
        seed=st.integers(0, 10_000),
    )
    def test_all_tiers_below_dtw(self, data, rho, seed):
        d = len(data) // 2
        query = np.asarray(data[:d], dtype=np.float64)
        candidate = np.asarray(data[d : 2 * d], dtype=np.float64)
        rng = np.random.default_rng(seed)
        candidate = candidate + rng.normal(scale=0.5, size=d)
        dtw = dtw_distance(query, candidate, rho)
        slack = 1e-9 * max(1.0, dtw)
        assert lb_kim(query, candidate) <= dtw + slack
        assert lb_en(query, candidate, rho) <= dtw + slack
        lbi = lb_improved_profile(query, candidate[None], rho)[0]
        assert lbi <= dtw + slack
        # Lemire's second pass only ever adds: LB_Improved >= LB_EQ.
        assert lbi >= lb_eq(query, candidate, rho) - slack

    def test_lb_kim_single_point_is_admissible(self):
        # Both alignments collapse to the same DP cell for length-1
        # sequences; counting it twice would exceed the DTW distance.
        q, c = np.array([2.0]), np.array([5.0])
        assert lb_kim(q, c) == dtw_distance(q, c, rho=0) == 9.0
        np.testing.assert_array_equal(
            lb_kim_profile(q, np.array([5.0, 7.0]), np.array([0, 1])),
            np.array([9.0, 25.0]),
        )

    def test_lb_kim_profile_matches_scalar(self):
        series = make_series(80, seed=7)
        query = series[-12:]
        starts = np.arange(series.size - 12 + 1)
        profile = lb_kim_profile(query, series, starts)
        for t in starts:
            assert profile[t] == lb_kim(query, series[t : t + 12])

    def test_tiers_are_not_mutually_ordered(self):
        # The documented counterexample: LB_Kim can exceed LB_en, so the
        # cascade's tiers prune independently rather than monotonically.
        q, c = np.array([0.0, 5.0]), np.array([5.0, 0.0])
        assert lb_kim(q, c) == 50.0
        assert lb_en(q, c, rho=1) == 0.0
        assert dtw_distance(q, c, rho=1) == 50.0


class TestBatchedPrimitives:
    """Vectorised envelope + pruned DTW match their reference forms."""

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=40),
        rho=st.integers(0, 6),
    )
    def test_envelope_matches_window_definition(self, values, rho):
        x = np.asarray(values, dtype=np.float64)
        env = compute_envelope(x, rho)
        for i in range(x.size):
            window = x[max(0, i - rho) : i + rho + 1]
            assert env.upper[i] == window.max()
            assert env.lower[i] == window.min()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 5_000),
        n=st.integers(1, 6),
        d=st.integers(1, 30),
        rho=st.integers(0, 5),
    )
    def test_envelope_batch_matches_per_row(self, seed, n, d, rho):
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(n, d))
        upper, lower = compute_envelope_batch(batch, rho)
        for r in range(n):
            env = compute_envelope(batch[r], rho)
            np.testing.assert_array_equal(upper[r], env.upper)
            np.testing.assert_array_equal(lower[r], env.lower)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 5_000),
        n=st.integers(1, 40),
        rho=st.integers(0, 6),
    )
    def test_envelope_shift_is_exact(self, seed, n, rho):
        rng = np.random.default_rng(seed)
        old_values = rng.normal(size=n)
        new_values = np.concatenate([old_values[1:], rng.normal(size=1)])
        shifted = envelope_shift(new_values, compute_envelope(old_values, rho))
        fresh = compute_envelope(new_values, rho)
        np.testing.assert_array_equal(shifted.upper, fresh.upper)
        np.testing.assert_array_equal(shifted.lower, fresh.lower)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(2, 28),
        n=st.integers(1, 30),
        rho=st.integers(0, 6),
        quantile=st.floats(0.05, 0.95),
    )
    def test_pruned_dtw_exact_for_survivors(self, seed, d, n, rho, quantile):
        rng = np.random.default_rng(seed)
        query = rng.normal(size=d) * 3.0
        candidates = rng.normal(size=(n, d)) * 3.0
        reference = dtw_batch(query, candidates, rho)
        cutoff = float(np.quantile(reference, quantile))
        _, terms = lb_improved_profile(
            query, candidates, rho, return_terms=True
        )
        pruned = dtw_batch_pruned(
            query, candidates, rho, cutoff=cutoff, lb_terms=terms
        )
        survivors = np.isfinite(pruned)
        # Survivors are bit-identical; abandoned truly exceed the cutoff.
        np.testing.assert_array_equal(pruned[survivors], reference[survivors])
        assert (reference[~survivors] > cutoff).all()
        # Nothing at or below the cutoff may ever be abandoned.
        assert survivors[reference <= cutoff].all()

    def test_pruned_dtw_without_cutoff_equals_batch(self):
        rng = np.random.default_rng(11)
        query = rng.normal(size=20)
        candidates = rng.normal(size=(15, 20))
        np.testing.assert_array_equal(
            dtw_batch_pruned(query, candidates, rho=4),
            dtw_batch(query, candidates, rho=4),
        )

    def test_pruned_dtw_reports_cell_savings(self):
        rng = np.random.default_rng(13)
        query = rng.normal(size=32)
        candidates = np.concatenate(
            [query[None, :] + 0.01, rng.normal(size=(63, 32)) + 50.0]
        )
        _, terms = lb_improved_profile(query, candidates, 4, return_terms=True)
        _, cells = dtw_batch_pruned(
            query, candidates, 4, cutoff=1.0, lb_terms=terms,
            return_cells=True,
        )
        full_cells = 64 * 32 * min(32, 2 * 4 + 1)
        assert 0 < cells < full_cells / 2


class TestSearchEdgeCases:
    def test_empty_to_verify_batch(self):
        """When the seed pool covers every unfiltered candidate the
        verification batch is empty — the answer must still be exact."""
        # Series barely longer than the master query: few candidates,
        # k_max above all of them, so every candidate becomes a seed.
        cfg = SuffixSearchConfig(
            item_lengths=(8, 16), k_max=32, omega=4, rho=2, margin=1
        )
        series = make_series(16 + 6, seed=21)
        engine = SuffixKnnEngine(series, cfg)
        answers = engine.search()
        assert_matches_reference(engine, answers, cfg.margin)
        for answer in answers.values():
            assert answer.candidates_verified >= answer.candidates_unfiltered

    def test_k_max_above_candidate_count(self):
        cfg = SuffixSearchConfig(
            item_lengths=(8, 16), k_max=500, omega=4, rho=2, margin=1
        )
        series = make_series(40, seed=22)
        engine = SuffixKnnEngine(series, cfg)
        answers = engine.step(0.7)
        assert_matches_reference(engine, answers, cfg.margin)
        for d, answer in answers.items():
            # Every valid candidate is an answer.
            assert answer.starts.size == answer.candidates_total
            assert answer.candidates_verified == answer.candidates_total

    def test_series_barely_longer_than_largest_item(self):
        """Exactly one candidate for the largest item length."""
        cfg = SuffixSearchConfig(
            item_lengths=(8, 16), k_max=4, omega=4, rho=2, margin=1
        )
        series = make_series(16 + 1, seed=23)
        engine = SuffixKnnEngine(series, cfg)
        answers = engine.search()
        assert answers[16].candidates_total == 1
        assert_matches_reference(engine, answers, cfg.margin)
        # One step later there are two candidates; still exact.
        answers = engine.step(-0.2)
        assert answers[16].candidates_total == 2
        assert_matches_reference(engine, answers, cfg.margin)

    def test_threshold_reuse_with_stale_previous_knn(self):
        """Out-of-range _previous_knn indices (a restore() artefact or a
        truncated history) must be ignored, not crash or skew tau."""
        series = make_series(200, seed=24)
        engine = SuffixKnnEngine(series, SMALL_CFG)
        engine.search()
        for d in SMALL_CFG.item_lengths:
            engine._previous_knn[d] = np.array([10_000, 20_000, 30_000])
        answers = engine.step(0.4)
        assert_matches_reference(engine, answers, SMALL_CFG.margin)

    @pytest.mark.parametrize("backend_name", ["simulated", "native"])
    def test_corrupted_distance_never_reaches_an_answer(self, backend_name):
        """Every verification launch hands back one NaN; the non-finite
        drop before k-selection keeps all of them out of the answers."""
        backend = FaultInjectingBackend(
            make_backend(backend_name),
            FaultProfile(seed=26, kernel_nan_rate=1.0),
        )
        engine = SuffixKnnEngine(
            make_series(200, seed=26), SMALL_CFG, backend=backend
        )
        for p in make_series(30, seed=27):
            for answer in engine.step(p).values():
                assert answer.distances.size > 0
                assert np.isfinite(answer.distances).all()
        assert backend.injected["kernel_nan"] >= 30

    def test_search_exact_immediately_after_restore(self, tmp_path):
        """restore() rebuilds the engine with no _previous_knn; the next
        prediction must be bit-identical to the never-saved instance."""
        from repro.core import SMiLerConfig
        from repro.core.persistence import load_smiler, save_smiler
        from repro.core.smiler import SMiLer

        config = SMiLerConfig(
            elv=(8, 16), ekv=(2, 4), rho=2, omega=4, horizons=(1,),
            predictor="ar",
        )
        history = make_series(120, seed=25)
        original = SMiLer(history, config, sensor_id="edge-0")
        original.predict()
        original.observe(0.31)
        save_smiler(original, tmp_path / "edge-0.npz")
        restored = load_smiler(tmp_path / "edge-0.npz")
        assert restored.engine._previous_knn == {}

        # The restored engine answers its very first (reuse-free) search
        # exactly like the warm original answers its reuse-based one.
        warm = original.engine.search()
        cold = restored.engine.search()
        for d in (8, 16):
            np.testing.assert_array_equal(warm[d].starts, cold[d].starts)
            np.testing.assert_array_equal(
                warm[d].distances, cold[d].distances
            )
        assert_matches_reference(restored.engine, cold, config.margin)


class TestFusedGroups:
    """``search_many``: a group's answers and per-tier counts are each
    engine's own, whatever shares its launches."""

    COUNTS = (
        "candidates_total", "candidates_unfiltered", "candidates_verified",
        "pruned_kim", "pruned_window",
    )

    @pytest.mark.parametrize("backend_name", ["simulated", "native"])
    def test_ragged_group_equals_reference_and_each_engine_alone(
        self, backend_name
    ):
        """Unequal series lengths, a sensor with fewer than ``k_max``
        candidates, the adversarial shapes beside the plain walk, and —
        as churn produces — a cold engine (LB-pool seeds) joining warm
        ones (reused seeds) mid-run."""
        cfg = SMALL_CFG
        streams = [
            stream[5 * i :] for i, stream in
            enumerate(adversarial_streams().values())
        ]
        # 24 + margin + 3 points: 4 candidates at d=24, k_max is 6.
        streams.append(make_series(29 + 6, seed=41))
        late = make_series(150 + 6, seed=42)
        shared = make_backend(backend_name)
        group, solo, feeds = [], [], []

        def join(stream, seen):
            history = stream[: stream.size - 6 + seen]
            group.append(SuffixKnnEngine(history, cfg, backend=shared))
            solo.append(
                SuffixKnnEngine(history, cfg, backend=make_backend(backend_name))
            )
            feeds.append(stream[stream.size - 6 :])

        for stream in streams:
            join(stream, 0)
        for step in range(6):
            if step == 3:
                join(late, step)
            fused = search_many(group)
            assert len(fused) == len(group)
            if step == 0:
                assert fused[len(streams) - 1][24].starts.size == 4 < cfg.k_max
            for i, (engine, twin, answers) in enumerate(zip(group, solo, fused)):
                assert list(answers) == list(cfg.item_lengths)
                assert_matches_reference(engine, answers, cfg.margin, f"#{i}")
                for d, alone in twin.search().items():
                    np.testing.assert_array_equal(answers[d].starts, alone.starts)
                    np.testing.assert_array_equal(
                        answers[d].distances, alone.distances
                    )
                    for field in self.COUNTS:
                        assert getattr(answers[d], field) == getattr(
                            alone, field
                        ), (i, d, field)
            for engine, twin, feed in zip(group, solo, feeds):
                engine.advance(feed[step])
                twin.advance(feed[step])

    def test_four_kernel_ops_per_item_length_whatever_the_group_size(self):
        for n_engines in (1, 5):
            backend = FaultInjectingBackend(
                make_backend("simulated"), FaultProfile(seed=1)
            )
            engines = [
                SuffixKnnEngine(
                    make_series(200 + 10 * i, seed=50 + i), SMALL_CFG,
                    backend=backend,
                )
                for i in range(n_engines)
            ]
            search_many(engines)  # warm: the next search reuses seeds
            launches, tick = backend.cost.launches, backend.tick
            search_many(engines)
            n_items = len(SMALL_CFG.item_lengths)
            # One group_index_sum for the group's bounds, then four ops
            # per item length.
            assert backend.cost.launches - launches == 1 + 4 * n_items
            # The fault wrapper sees the three faultable ones of the four.
            assert backend.tick - tick == 3 * n_items

    def test_refuses_engines_that_do_not_share_backend_and_config(self):
        series = make_series(120, seed=43)
        backend = make_backend("simulated")
        engine = SuffixKnnEngine(series, SMALL_CFG, backend=backend)
        elsewhere = SuffixKnnEngine(
            series, SMALL_CFG, backend=make_backend("simulated")
        )
        other_cfg = SuffixKnnEngine(
            series, dataclasses.replace(SMALL_CFG, k_max=5), backend=backend
        )
        for stranger in (elsewhere, other_cfg):
            with pytest.raises(ValueError, match="share one backend"):
                search_many([engine, stranger])
        # Equal configs need not be the same object.
        twin = SuffixKnnEngine(
            series, dataclasses.replace(SMALL_CFG), backend=backend
        )
        assert len(search_many([engine, twin])) == 2

    def test_empty_group(self):
        assert search_many([]) == []


class TestAccounting:
    def test_verified_includes_seeds_above_tau(self):
        """candidates_verified counts seeds ∪ to_verify, never less than
        the unfiltered survivor count (the fixed accounting)."""
        series = make_series(300, seed=31)
        engine = SuffixKnnEngine(series, SMALL_CFG)
        engine.search()
        answers = engine.step(0.1)
        for answer in answers.values():
            assert answer.candidates_verified >= answer.candidates_unfiltered
            assert answer.candidates_verified <= answer.candidates_total
            pruned = answer.pruned_kim + answer.pruned_window
            assert pruned == answer.candidates_total - answer.candidates_unfiltered
            assert answer.abandoned_early == 0

    def test_sim_time_split_between_verification_and_selection(self):
        """The k_select span must be charged to selection_sim_s, not to
        verification_sim_s (the fixed attribution)."""
        series = make_series(300, seed=32)
        engine = SuffixKnnEngine(
            series, SMALL_CFG, backend=make_backend("simulated")
        )
        answers = engine.search()
        for answer in answers.values():
            assert answer.verification_sim_s > 0.0
            assert answer.selection_sim_s > 0.0

    def test_total_sim_time_is_conserved(self):
        """Every answer carries its row-share of each fused launch: the
        shares of a group — of one, of three — tile the ledger delta."""
        for n_engines in (1, 3):
            backend = make_backend("simulated")
            engines = [
                SuffixKnnEngine(
                    make_series(280 + 40 * i, seed=33 + i), SMALL_CFG,
                    backend=backend,
                )
                for i in range(n_engines)
            ]
            backend.reset_time()
            answers = [
                a for found in search_many(engines) for a in found.values()
            ]
            accounted = sum(
                a.verification_sim_s + a.selection_sim_s for a in answers
            )
            # The only other work inside a search is the group-index bound
            # computation, one launch per group outside the answers' spans.
            bounds_s = backend.cost.per_kernel_s["group_index_sum"]
            assert accounted == pytest.approx(
                backend.elapsed_s - bounds_s, rel=1e-12
            )
            assert all(a.verification_sim_s > 0.0 for a in answers)
            assert all(a.selection_sim_s > 0.0 for a in answers)
            # One selection launch per item length, shared by pool rows.
            for d in SMALL_CFG.item_lengths:
                per_row = [
                    a.selection_sim_s / a.candidates_verified
                    for a in answers if a.item_length == d
                ]
                assert per_row == pytest.approx([per_row[0]] * n_engines)

    def test_cascade_prunes_on_smooth_data(self):
        """On self-similar data the cascade kills most candidates before
        verification."""
        series = make_series(2000, seed=34)
        cfg = SuffixSearchConfig(
            item_lengths=(32, 64), k_max=8, omega=16, rho=8, margin=1
        )
        engine = SuffixKnnEngine(series, cfg)
        engine.search()
        answers = engine.step(float(series[-1]))
        total_pruned = sum(
            a.pruned_kim + a.pruned_window for a in answers.values()
        )
        total = sum(a.candidates_total for a in answers.values())
        assert total_pruned > total / 2
