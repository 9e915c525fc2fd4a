"""Property-based thread-safety tests for :mod:`repro.obs`.

The serving layer's worker lanes (``ServiceConfig(max_workers=...)``)
hammer the metrics registry and the tracer from several threads at once.
These properties pin the contracts that makes that safe:

* counter / gauge / histogram totals are *exact* under concurrent
  updates (no lost increments, no torn read-modify-write) — amounts are
  integer-valued so float addition is associativity-proof;
* span trees are per-thread: nesting never crosses threads, and the
  simulated-GPU attribution of a nested span is never negative and never
  exceeds (or overlaps) its parent's;
* ``Tracer.last_root`` always references a *complete* tree, whichever
  thread finished last.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer

#: Per-thread workloads: 2-6 threads, each with its own integer amounts.
WORKLOADS = st.lists(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40),
    min_size=2,
    max_size=6,
)


def run_threads(worker, per_thread_args):
    """Start one thread per argument behind a barrier; re-raise failures."""
    barrier = threading.Barrier(len(per_thread_args))
    failures = []

    def wrapped(args):
        try:
            barrier.wait()
            worker(*args)
        except BaseException as error:  # pragma: no cover - failure path
            failures.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(args,))
        for args in per_thread_args
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


class TestRegistryUnderThreads:
    @settings(max_examples=25)
    @given(workloads=WORKLOADS)
    def test_counter_total_is_exact(self, workloads):
        registry = MetricsRegistry()
        counter = registry.counter("work_total", label_names=("lane",))

        def worker(amounts):
            for amount in amounts:
                counter.inc(amount, lane="shared")

        run_threads(worker, [(w,) for w in workloads])
        expected = float(sum(sum(w) for w in workloads))
        assert counter.value(lane="shared") == expected

    @settings(max_examples=25)
    @given(workloads=WORKLOADS)
    def test_gauge_inc_dec_nets_to_zero(self, workloads):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight", label_names=("lane",))

        def worker(amounts):
            for amount in amounts:
                gauge.inc(amount, lane="shared")
                gauge.inc(-amount, lane="shared")

        run_threads(worker, [(w,) for w in workloads])
        assert gauge.value(lane="shared") == 0.0

    @settings(max_examples=25)
    @given(workloads=WORKLOADS)
    def test_histogram_count_and_sum_exact(self, workloads):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency", label_names=("lane",), buckets=(10.0, 50.0, 90.0)
        )

        def worker(amounts):
            for amount in amounts:
                histogram.observe(amount, lane="shared")

        run_threads(worker, [(w,) for w in workloads])
        series = histogram.series(lane="shared")
        n_observations = sum(len(w) for w in workloads)
        assert series.count == n_observations
        assert series.sum == float(sum(sum(w) for w in workloads))
        assert series.cumulative()[-1] == n_observations

    def test_per_thread_series_never_mix(self):
        """Distinct label values from distinct threads stay independent."""
        registry = MetricsRegistry()
        counter = registry.counter("per_lane_total", label_names=("lane",))
        rounds = 200

        def worker(lane):
            for _ in range(rounds):
                counter.inc(1, lane=lane)

        lanes = [f"lane-{i}" for i in range(4)]
        run_threads(worker, [(lane,) for lane in lanes])
        for lane in lanes:
            assert counter.value(lane=lane) == float(rounds)


class FakeDevice:
    """Stub with the one attribute spans read (``elapsed_s``); each
    thread owns one, mimicking a backend shard's simulated-time ledger."""

    def __init__(self) -> None:
        self.elapsed_s = 0.0


class TestTracerUnderThreads:
    @settings(max_examples=25)
    @given(
        charges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),  # before the child
                st.integers(min_value=0, max_value=50),  # inside the child
                st.integers(min_value=0, max_value=50),  # after the child
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_nested_gpu_attribution_never_negative_or_overlapping(
        self, charges
    ):
        """Each thread's nested span attributes exactly its own device
        seconds: child <= root, both non-negative, and the root's
        exclusive share (root - child) is exactly what ran outside the
        child — no cross-thread bleed, no double counting."""
        tracer = Tracer()
        observed = {}

        def worker(thread_index, before, inside, after):
            device = FakeDevice()
            with tracer.span("root", device=device) as root:
                device.elapsed_s += before
                with tracer.span("child", device=device) as child:
                    device.elapsed_s += inside
                device.elapsed_s += after
            observed[thread_index] = (root, child)

        run_threads(
            worker,
            [(i, b, m, a) for i, (b, m, a) in enumerate(charges)],
        )
        assert sorted(observed) == list(range(len(charges)))
        for index, (before, inside, after) in enumerate(charges):
            root, child = observed[index]
            assert child.gpu_sim_s == float(inside)
            assert root.gpu_sim_s == float(before + inside + after)
            assert 0.0 <= child.gpu_sim_s <= root.gpu_sim_s
            assert root.gpu_sim_s - child.gpu_sim_s == float(before + after)
            # Nesting stayed on this thread: exactly one child, ours.
            assert root.children == [child]
            assert child.children == []

    def test_current_is_thread_isolated(self):
        """With every thread parked inside an open span, ``current()``
        returns that thread's own span — never a peer's."""
        tracer = Tracer()
        n_threads = 4
        inside = threading.Barrier(n_threads)

        def worker(name):
            with tracer.span(name) as span:
                inside.wait()
                assert tracer.current() is span
                inside.wait()

        run_threads(worker, [(f"t{i}",) for i in range(n_threads)])

    def test_last_root_is_always_a_complete_tree(self):
        """Concurrent roots race to set ``last_root``; whoever wins, the
        retained reference is a fully-popped root, not a live span."""
        tracer = Tracer()
        n_threads = 4
        roots = []
        roots_lock = threading.Lock()

        def worker(name):
            for lap in range(20):
                with tracer.span(f"{name}-{lap}") as root:
                    with tracer.span("inner"):
                        pass
                with roots_lock:
                    roots.append(root)

        run_threads(worker, [(f"t{i}",) for i in range(n_threads)])
        last = tracer.last_root
        assert last is not None
        assert any(last is root for root in roots)
        # A retained root is complete: timed and with its child attached.
        assert last.wall_s >= 0.0
        assert len(last.children) == 1
        assert last.children[0].name == "inner"
