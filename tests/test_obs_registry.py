"""Unit tests for the metrics registry (repro.obs.registry)."""

import math
import threading

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("requests_total")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_monotonic_negative_increment_rejected(self, registry):
        c = registry.counter("requests_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1.0)

    def test_labelled_series_are_independent(self, registry):
        c = registry.counter("launches_total", label_names=("kernel",))
        c.inc(kernel="dtw_verify")
        c.inc(3, kernel="k_select")
        assert c.value(kernel="dtw_verify") == 1
        assert c.value(kernel="k_select") == 3

    def test_wrong_labels_rejected(self, registry):
        c = registry.counter("launches_total", label_names=("kernel",))
        with pytest.raises(ValueError, match="expects labels"):
            c.inc(device="gpu0")
        with pytest.raises(ValueError, match="expects labels"):
            c.inc()

    def test_label_cardinality_cap(self, registry):
        c = registry.counter(
            "explosive_total", label_names=("id",), max_series=5
        )
        for i in range(5):
            c.inc(id=i)
        with pytest.raises(LabelCardinalityError):
            c.inc(id="one-too-many")

    def test_concurrent_increments_are_lossless(self, registry):
        c = registry.counter("contended_total")
        n_threads, n_incs = 8, 2000

        def work():
            for _ in range(n_incs):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == n_threads * n_incs


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("memory_bytes")
        g.set(100.0)
        g.inc(50.0)
        g.inc(-25.0)  # a decrement
        assert g.value() == 125.0

    def test_gauge_may_go_negative(self, registry):
        g = registry.gauge("delta")
        g.inc(-3.0)
        assert g.value() == -3.0


class TestHistogram:
    def test_count_and_sum(self, registry):
        h = registry.histogram("latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        series = h.series()
        assert series.count == 4
        assert series.sum == pytest.approx(55.55)

    def test_cumulative_buckets(self, registry):
        h = registry.histogram("latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        # le=0.1 -> 1, le=1.0 -> 2, le=10.0 -> 3, le=+Inf -> 4.
        assert h.series().cumulative() == [1, 2, 3, 4]

    def test_quantile_interpolates(self, registry):
        h = registry.histogram("latency", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)  # everything in the (1, 2] bucket
        q50 = h.quantile(0.5)
        assert 1.0 < q50 <= 2.0

    def test_quantile_of_empty_series_is_nan(self, registry):
        h = registry.histogram("latency", buckets=(1.0,))
        assert math.isnan(h.quantile(0.5))

    def test_quantile_range_validated(self, registry):
        h = registry.histogram("latency", buckets=(1.0,))
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_labelled_histograms(self, registry):
        h = registry.histogram(
            "latency", label_names=("sensor",), buckets=(1.0, 10.0)
        )
        h.observe(0.5, sensor="a")
        h.observe(5.0, sensor="b")
        assert h.series(sensor="a").count == 1
        assert h.series(sensor="b").count == 1
        assert h.series(sensor="missing") is None

    def test_bad_buckets_rejected(self, registry):
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("x", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("y", buckets=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_idempotent(self, registry):
        a = registry.counter("hits_total")
        b = registry.counter("hits_total")
        assert a is b

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("thing")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("thing")

    def test_invalid_name_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad name!")

    def test_metrics_sorted_by_name(self, registry):
        registry.counter("zeta_total")
        registry.gauge("alpha_bytes")
        names = [m.name for m in registry.metrics()]
        assert names == sorted(names)

    def test_reset_clears_everything(self, registry):
        registry.counter("hits_total").inc()
        assert len(registry) == 1
        registry.reset()
        assert len(registry) == 0
        assert "hits_total" not in registry

    def test_membership_and_get(self, registry):
        registry.gauge("memory_bytes")
        assert "memory_bytes" in registry
        assert registry.get("memory_bytes").kind == "gauge"
        assert registry.get("absent") is None
