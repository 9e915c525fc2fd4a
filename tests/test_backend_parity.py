"""End-to-end backend parity: the native fast path must reproduce the
simulated backend's answers bit for bit.

The backend contract (``repro.backend.base``) promises identical float64
DTW distances and identical tie-breaking in k-selection; these tests pin
the consequence — identical kNN answer sets and bit-identical forecasts
— over a seeded continuous run, so any backend divergence fails loudly
rather than skewing accuracy figures.
"""

import numpy as np
import pytest

from repro.backend import NativeBackend, SimulatedGpuBackend
from repro.core import SMiLer, SMiLerConfig
from repro.index.suffix_search import SuffixKnnEngine, SuffixSearchConfig
from repro.service import PredictionService

CONFIG = SMiLerConfig(
    elv=(16, 32), ekv=(4, 8), rho=4, omega=8, horizons=(1, 3),
    predictor="ar",
)


def seeded_stream(n=800, seed=11):
    rng = np.random.default_rng(seed)
    return 40.0 + 8.0 * (
        np.sin(np.arange(n) / 11.0)
        + 0.3 * np.sin(np.arange(n) / 3.0)
        + 0.1 * rng.normal(size=n)
    )


class TestSearchParity:
    def test_identical_knn_answers_over_continuous_run(self):
        stream = seeded_stream()
        config = SuffixSearchConfig(
            item_lengths=(16, 32), k_max=8, omega=8, rho=4, margin=1
        )
        sim = SuffixKnnEngine(
            stream[:700], config, backend=SimulatedGpuBackend()
        )
        nat = SuffixKnnEngine(stream[:700], config, backend=NativeBackend())
        for answers in (sim.search(), nat.search()):
            assert set(answers) == {16, 32}
        for t in range(700, 720):
            a = sim.step(float(stream[t]))
            b = nat.step(float(stream[t]))
            for d in (16, 32):
                np.testing.assert_array_equal(
                    a[d].starts, b[d].starts,
                    err_msg=f"kNN answer sets diverge at t={t}, d={d}",
                )
                np.testing.assert_array_equal(a[d].distances, b[d].distances)
                assert a[d].candidates_unfiltered == b[d].candidates_unfiltered


class TestFusedKernelParity:
    """The two shapes a lane-fused search hands the seam: one query per
    candidate row, and a segmented k-selection."""

    def test_paired_queries_identical(self):
        rng = np.random.default_rng(31)
        queries = rng.normal(size=(37, 24)).cumsum(axis=1)
        candidates = queries + 0.3 * rng.normal(size=(37, 24))
        sim = SimulatedGpuBackend().dtw_verification(queries, candidates, 4)
        nat = NativeBackend().dtw_verification(queries, candidates, 4)
        np.testing.assert_array_equal(sim, nat)
        for i in (0, 17, 36):
            np.testing.assert_array_equal(
                nat[i],
                NativeBackend().dtw_verification(
                    queries[i], candidates[i : i + 1], 4
                )[0],
            )

    def test_segmented_k_select_identical_with_ties(self):
        sim, nat = SimulatedGpuBackend(), NativeBackend()
        rng = np.random.default_rng(32)
        for _ in range(10):
            sizes = rng.integers(1, 60, size=6)
            values = np.round(rng.uniform(0, 3, size=int(sizes.sum())), 1)
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            k = int(rng.integers(1, 40))  # above some segment sizes
            np.testing.assert_array_equal(
                sim.k_select(values, k, offsets), nat.k_select(values, k, offsets)
            )

    @pytest.mark.parametrize("backend_cls", [SimulatedGpuBackend, NativeBackend])
    @pytest.mark.parametrize("offsets", [None, [0, 2, 5]])
    def test_nan_is_refused_alike(self, backend_cls, offsets):
        """A NaN has no rank: both backends refuse it with one message that
        names the count, plain and segmented (the simulated kernel used to
        fail inside ``np.bincount``, the native one ranked NaN last)."""
        values = np.array([3.0, np.nan, 1.0, 2.0, np.nan])
        with pytest.raises(
            ValueError, match=r"^k_select cannot rank NaN: 2 of 5 values are NaN$"
        ):
            backend_cls().k_select(values, 2, offsets)

    @pytest.mark.parametrize("backend_cls", [SimulatedGpuBackend, NativeBackend])
    def test_a_fused_op_is_one_tick_on_the_fault_wrapper(self, backend_cls):
        from repro.faults import FaultInjectingBackend, FaultProfile

        backend = FaultInjectingBackend(backend_cls(), FaultProfile(seed=3))
        rng = np.random.default_rng(33)
        queries = rng.normal(size=(12, 8))
        backend.dtw_verification(queries, queries + 0.1, 2)
        assert backend.tick == 1
        backend.k_select(rng.normal(size=12), 3, [0, 5, 12])
        assert backend.tick == 2


class TestForecastParity:
    def test_bit_identical_forecasts(self):
        stream = seeded_stream(seed=23)

        def run(backend):
            service = PredictionService(
                CONFIG, backends=backend, min_history=100
            )
            service.register("sensor-A", stream[:700])
            outputs = []
            for value in stream[700:730]:
                outputs.append(service.forecast("sensor-A"))
                service.ingest("sensor-A", float(value))
            outputs.append(service.forecast("sensor-A", horizon=3))
            return outputs

        for sim, nat in zip(run(SimulatedGpuBackend()), run(NativeBackend())):
            assert sim.mean == nat.mean  # bit-identical, no tolerance
            assert sim.std == nat.std
            assert sim.interval_low == nat.interval_low
            assert sim.interval_high == nat.interval_high

    def test_smiler_predictions_identical(self):
        stream = seeded_stream(seed=31)
        sim = SMiLer(stream[:700], CONFIG, backend=SimulatedGpuBackend())
        nat = SMiLer(stream[:700], CONFIG, backend=NativeBackend())
        for t in range(700, 715):
            a = sim.predict()
            b = nat.predict()
            for h in CONFIG.horizons:
                assert a[h].mean == b[h].mean
                assert a[h].variance == b[h].variance
            sim.observe(float(stream[t]))
            nat.observe(float(stream[t]))


class TestTimeAttribution:
    def test_only_simulated_accrues_time(self):
        stream = seeded_stream(seed=7)
        sim = SMiLer(stream[:700], CONFIG, backend=SimulatedGpuBackend())
        nat = SMiLer(stream[:700], CONFIG, backend=NativeBackend())
        sim.predict()
        nat.predict()
        assert sim.backend.elapsed_s > 0
        assert nat.backend.elapsed_s == 0.0
        assert sim.diagnostics()["device_sim_seconds"] > 0
        assert nat.diagnostics()["device_sim_seconds"] == 0.0
