"""Unit tests for span tracing (repro.obs.tracing) and the global hooks."""

import threading
import tracemalloc

import pytest

from repro import obs
from repro.backend import SimulatedGpuBackend
from repro.obs.tracing import Tracer, format_span_tree


@pytest.fixture
def tracer():
    return Tracer()


@pytest.fixture(autouse=True)
def _clean_global_obs():
    """Keep the process-wide switch off and state clean around each test."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpanNesting:
    def test_children_attach_to_open_parent(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert root.children[0].children[0].name == "grandchild"

    def test_durations_non_negative_and_parent_covers_children(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child"):
                sum(range(1000))
        assert root.wall_s >= 0.0
        assert root.children[0].wall_s >= 0.0
        assert root.wall_s >= root.children[0].wall_s

    def test_last_root_set_on_completion(self, tracer):
        assert tracer.last_root is None
        with tracer.span("first"):
            assert tracer.last_root is None  # still open
        assert tracer.last_root.name == "first"
        with tracer.span("second"):
            pass
        assert tracer.last_root.name == "second"

    def test_exception_unwinds_stack(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("child"):
                    raise RuntimeError("boom")
        assert tracer.current() is None
        assert tracer.last_root.name == "root"

    def test_find_and_find_all(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("leaf"):
                pass
            with tracer.span("branch"):
                with tracer.span("leaf"):
                    pass
        assert root.find("leaf") is root.children[0]
        assert len(root.find_all("leaf")) == 2
        assert root.find("absent") is None

    def test_threads_have_independent_stacks(self, tracer):
        seen = {}

        def work(name):
            with tracer.span(name) as sp:
                seen[name] = sp

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # No cross-thread nesting: every span is a root with no children.
        assert all(not sp.children for sp in seen.values())


class TestGpuAttribution:
    def test_span_records_simulated_device_time(self, tracer):
        device = SimulatedGpuBackend()
        with tracer.span("kernelwork", device=device) as sp:
            device.launch("fake_kernel", n_blocks=4, ops_per_thread=1000)
        assert sp.gpu_sim_s > 0.0
        assert sp.gpu_sim_s == pytest.approx(device.elapsed_s)

    def test_span_without_device_reports_zero_gpu(self, tracer):
        with tracer.span("cpuwork") as sp:
            pass
        assert sp.gpu_sim_s == 0.0


class TestRendering:
    def test_format_tree_contains_names_and_attrs(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                child.attrs["item_length"] = 32
        text = format_span_tree(root)
        assert "root" in text
        assert "child" in text
        assert "item_length=32" in text

    def test_as_dict_round_trips_structure(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        record = root.as_dict()
        assert record["name"] == "root"
        assert record["children"][0]["name"] == "child"
        assert record["wall_s"] >= 0.0


class TestGlobalSwitch:
    def test_disabled_span_is_shared_noop(self):
        a = obs.span("anything")
        b = obs.span("something_else")
        assert a is b  # the shared singleton — no per-call allocation
        with a as inner:
            assert inner is None
        assert obs.get_tracer().last_root is None

    def test_enabled_span_traces(self):
        obs.enable()
        with obs.span("root") as sp:
            assert sp is not None
        assert obs.get_tracer().last_root is sp

    def test_disabled_span_allocates_nothing(self):
        device = SimulatedGpuBackend()
        obs.span("warmup", device)  # warm caches before measuring
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(100):
            with obs.span("hot_path", device):
                pass
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        grown = [
            s for s in after.compare_to(before, "lineno")
            if s.size_diff > 0 and "tracemalloc" not in str(s.traceback)
        ]
        assert sum(s.size_diff for s in grown) < 512, grown

    def test_disabled_hooks_allocate_nothing(self):
        obs.observe_kernel_launch("warmup", 0.0, 1)
        rows = [(0.0, 1.0, "ensemble"), (0.0, 1.0, "ar")]
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(100):
            obs.observe_kernel_launch("k", 1e-6, 4)
            obs.observe_gpu_memory("simulated-0", 4096)
            obs.observe_search(32, 100, 10, 10)
            obs.observe_window_reuse(rows_reused=5)
            obs.observe_forecasts(1, rows)
            obs.observe_degraded_forecast("s", "ar")
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        grown = [
            s for s in after.compare_to(before, "lineno")
            if s.size_diff > 0 and "tracemalloc" not in str(s.traceback)
        ]
        assert sum(s.size_diff for s in grown) < 512, grown
