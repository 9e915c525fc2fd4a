"""Tests for the simulated cost model and the backends' memory ledger."""

import sys
import threading

import pytest

from repro.backend import NativeBackend, SimulatedGpuBackend
from repro.gpu import CPU_SPEC, CpuCostModel, DeviceSpec, GpuMemoryError


class TestCostModel:
    def test_launch_accumulates_time(self):
        dev = SimulatedGpuBackend()
        t1 = dev.launch("a", n_blocks=14, ops_per_thread=1000.0)
        t2 = dev.launch("a", n_blocks=14, ops_per_thread=1000.0)
        assert t1 > 0 and t2 > 0
        assert dev.elapsed_s == pytest.approx(t1 + t2)

    def test_wave_scheduling(self):
        """2x the blocks of one full wave should take ~2x the wave time."""
        spec = DeviceSpec(launch_overhead_s=0.0)
        one = SimulatedGpuBackend(spec)
        two = SimulatedGpuBackend(spec)
        one.launch("k", n_blocks=spec.n_sms, ops_per_thread=1e6)
        two.launch("k", n_blocks=2 * spec.n_sms, ops_per_thread=1e6)
        assert two.elapsed_s == pytest.approx(2 * one.elapsed_s)

    def test_parallelism_beats_serial(self):
        """The same op count runs far faster on the GPU than the CPU model."""
        ops = 1e9
        gpu = SimulatedGpuBackend(DeviceSpec(launch_overhead_s=0.0))
        # Spread the ops across a full wave of blocks and threads.
        spec = gpu.spec
        per_thread = ops / (spec.n_sms * 256)
        gpu.launch("k", n_blocks=spec.n_sms, ops_per_thread=per_thread)
        cpu = CpuCostModel()
        cpu.execute(ops)
        assert gpu.elapsed_s < cpu.elapsed_s / 50

    def test_zero_blocks_is_free(self):
        dev = SimulatedGpuBackend()
        assert dev.launch("noop", 0, 100.0) == 0.0
        assert dev.cost.launches == 0

    def test_invalid_threads(self):
        dev = SimulatedGpuBackend()
        with pytest.raises(ValueError):
            dev.launch("bad", 1, 1.0, threads_per_block=0)

    def test_per_kernel_breakdown(self):
        dev = SimulatedGpuBackend()
        dev.launch("a", 1, 10.0)
        dev.launch("b", 1, 10.0)
        assert set(dev.cost.per_kernel_s) == {"a", "b"}

    def test_reset(self):
        dev = SimulatedGpuBackend()
        dev.launch("a", 1, 10.0)
        dev.reset_time()
        assert dev.elapsed_s == 0.0

    def test_cpu_spec_is_serial(self):
        assert CPU_SPEC.total_cores == 1


class LedgerContract:
    """The memory-ledger cases, run against each backend by the two
    subclasses below (both own the same ``MemoryLedger``)."""

    @staticmethod
    def make(capacity_bytes=None):
        raise NotImplementedError

    def test_malloc_free_roundtrip(self):
        dev = self.make()
        handle = dev.malloc(1024, "index")
        assert dev.allocated_bytes == 1024
        dev.free(handle)
        assert dev.allocated_bytes == 0

    def test_out_of_memory(self):
        dev = self.make(1000)
        dev.malloc(900)
        assert dev.free_bytes == 100
        with pytest.raises(GpuMemoryError):
            dev.malloc(200)
        assert dev.allocated_bytes == 900  # the refusal reserved nothing

    def test_double_free_rejected(self):
        dev = self.make()
        handle = dev.malloc(10)
        dev.free(handle)
        with pytest.raises(KeyError):
            dev.free(handle)

    def test_negative_allocation(self):
        dev = self.make()
        with pytest.raises(ValueError):
            dev.malloc(-1)

    def test_live_allocations_ordered(self):
        dev = self.make()
        a = dev.malloc(1, "a")
        b = dev.malloc(2, "b")
        assert [h.serial for h in (a, b)] == [1, 2]
        assert [h.label for h in dev.ledger.live_allocations()] == ["a", "b"]
        dev.free(a)
        assert [h.label for h in dev.ledger.live_allocations()] == ["b"]
        assert b.nbytes == 2

    def test_concurrent_malloc_free_loses_no_update(self):
        """The ledger has no lock of its own: the backend's single lock
        must cover every malloc/free, or racing lanes lose an update."""
        dev = self.make()
        n_threads, laps = 8, 400
        serials = [[] for _ in range(n_threads)]

        def churn(mine):
            for _ in range(laps):
                handle = dev.malloc(3)
                mine.append(handle.serial)
                dev.free(handle)

        threads = [
            threading.Thread(target=churn, args=(mine,)) for mine in serials
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert dev.allocated_bytes == 0
        assert dev.ledger.live_allocations() == []
        flat = [serial for mine in serials for serial in mine]
        assert sorted(flat) == list(range(1, n_threads * laps + 1))


class TestDeviceMemory(LedgerContract):
    @staticmethod
    def make(capacity_bytes=None):
        if capacity_bytes is None:
            return SimulatedGpuBackend()
        return SimulatedGpuBackend(DeviceSpec(memory_bytes=capacity_bytes))

    def test_default_capacity_is_6gb(self):
        assert self.make().free_bytes == 6 * 1024**3


class TestNativeMemory(LedgerContract):
    make = staticmethod(NativeBackend)


class TestWorkConservingMode:
    def test_fractional_waves(self):
        """Work-conserving: 7 blocks on 14 SMs cost half a wave."""
        spec = DeviceSpec(launch_overhead_s=0.0, work_conserving=True)
        half = SimulatedGpuBackend(spec)
        full = SimulatedGpuBackend(spec)
        half.launch("k", n_blocks=7, ops_per_thread=1e6)
        full.launch("k", n_blocks=14, ops_per_thread=1e6)
        assert half.elapsed_s == pytest.approx(full.elapsed_s / 2)

    def test_quantised_default_rounds_up(self):
        spec = DeviceSpec(launch_overhead_s=0.0, work_conserving=False)
        dev = SimulatedGpuBackend(spec)
        one_block = dev.launch("k", n_blocks=1, ops_per_thread=1e6)
        fifteen = dev.launch("k", n_blocks=15, ops_per_thread=1e6)
        # 15 blocks on 14 SMs need two full waves.
        assert fifteen == pytest.approx(2 * one_block)

    def test_modes_agree_on_full_waves(self):
        conserving = SimulatedGpuBackend(DeviceSpec(launch_overhead_s=0.0, work_conserving=True))
        quantised = SimulatedGpuBackend(DeviceSpec(launch_overhead_s=0.0, work_conserving=False))
        conserving.launch("k", n_blocks=28, ops_per_thread=1e5)
        quantised.launch("k", n_blocks=28, ops_per_thread=1e5)
        assert conserving.elapsed_s == pytest.approx(quantised.elapsed_s)
