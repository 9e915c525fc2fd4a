"""Tests for the pluggable compute-backend layer and the backend pool."""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_ENV_VAR,
    BackendPool,
    ComputeBackend,
    GpuMemoryError,
    NativeBackend,
    SimulatedGpuBackend,
    as_backend,
    default_backend,
    make_backend,
)
from repro.gpu.costmodel import DeviceSpec


def rng_series(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(np.arange(n) / 7.0) + 0.1 * rng.normal(size=n)


class TestFactory:
    def test_make_backend_names(self):
        assert make_backend("simulated").name == "simulated"
        assert make_backend("native").name == "native"
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("cuda")

    def test_make_backend_forwards_kwargs(self):
        spec = DeviceSpec(memory_bytes=1234)
        backend = make_backend("simulated", spec=spec)
        assert backend.free_bytes == 1234
        backend = make_backend("native", capacity_bytes=99)
        assert backend.free_bytes == 99

    def test_default_backend_env_var(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend().name == "simulated"
        monkeypatch.setenv(BACKEND_ENV_VAR, "native")
        assert default_backend().name == "native"

    def test_both_implement_protocol(self):
        assert isinstance(SimulatedGpuBackend(), ComputeBackend)
        assert isinstance(NativeBackend(), ComputeBackend)


class TestAsBackend:
    def test_none_gives_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert as_backend(None).name == "simulated"

    def test_backend_passes_through(self):
        backend = NativeBackend()
        assert as_backend(backend) is backend

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_backend(42)


class TestSimulatedGpuBackend:
    def test_kernels_attribute_time(self):
        backend = SimulatedGpuBackend()
        query = rng_series(32)
        candidates = np.stack([rng_series(32, seed=s) for s in range(1, 6)])
        distances = backend.dtw_verification(query, candidates, rho=4)
        assert distances.shape == (5,)
        assert backend.elapsed_s > 0
        backend.reset_time()
        assert backend.elapsed_s == 0.0

    def test_memory_ledger(self):
        backend = SimulatedGpuBackend(spec=DeviceSpec(memory_bytes=100))
        handle = backend.malloc(60, "a")
        assert backend.allocated_bytes == 60
        assert backend.free_bytes == 40
        with pytest.raises(GpuMemoryError):
            backend.malloc(50, "b")
        backend.free(handle)
        assert backend.allocated_bytes == 0


class TestNativeBackend:
    def test_no_time_model(self):
        backend = NativeBackend()
        query = rng_series(32)
        candidates = np.stack([rng_series(32, seed=s) for s in range(1, 4)])
        backend.dtw_verification(query, candidates, rho=4)
        backend.full_dtw(query, candidates)
        assert backend.launch("k", n_blocks=4, ops_per_thread=1.0) == 0.0
        assert backend.elapsed_s == 0.0

    def test_k_select_stable_ties(self):
        backend = NativeBackend()
        values = np.array([3.0, 1.0, 1.0, 0.5])
        np.testing.assert_array_equal(
            backend.k_select(values, 3), [3, 1, 2]
        )
        with pytest.raises(ValueError):
            backend.k_select(values, 0)
        with pytest.raises(ValueError):
            backend.k_select(np.empty(0), 1)

    def test_unbounded_by_default(self):
        backend = NativeBackend()
        backend.malloc(10**12, "huge")  # no error
        assert backend.allocated_bytes == 10**12

    def test_bounded_capacity(self):
        backend = NativeBackend(capacity_bytes=100)
        handle = backend.malloc(80, "a")
        with pytest.raises(GpuMemoryError):
            backend.malloc(30, "b")
        backend.free(handle)
        with pytest.raises(KeyError):
            backend.free(handle)  # double free
        with pytest.raises(ValueError):
            NativeBackend(capacity_bytes=0)


class TestKernelParity:
    """Simulated and native must return identical answers (the contract
    the parity tests pin end-to-end)."""

    def test_dtw_identical(self):
        sim, nat = SimulatedGpuBackend(), NativeBackend()
        query = rng_series(48, seed=3)
        candidates = np.stack([rng_series(48, seed=s) for s in range(4, 12)])
        np.testing.assert_array_equal(
            sim.dtw_verification(query, candidates, rho=6),
            nat.dtw_verification(query, candidates, rho=6),
        )
        np.testing.assert_array_equal(
            sim.full_dtw(query, candidates), nat.full_dtw(query, candidates)
        )

    def test_k_select_identical_with_ties(self):
        sim, nat = SimulatedGpuBackend(), NativeBackend()
        rng = np.random.default_rng(7)
        for trial in range(20):
            # Coarse quantisation forces plenty of exact ties.
            values = np.round(rng.uniform(0, 3, size=200), 1)
            k = int(rng.integers(1, 50))
            np.testing.assert_array_equal(
                sim.k_select(values, k), nat.k_select(values, k)
            )


class TestBackendPool:
    def test_requires_backends(self):
        with pytest.raises(ValueError):
            BackendPool([])

    def test_greedy_placement_balances(self):
        pool = BackendPool([
            NativeBackend(capacity_bytes=100),
            NativeBackend(capacity_bytes=100),
        ])
        placements = [pool.allocate(30, f"s{i}") for i in range(3)]
        # Greedy max-free, ties to lowest index: 0, 1, 0.
        assert [p.backend_index for p in placements] == [0, 1, 0]

    def test_exhaustion_raises_with_label(self):
        pool = BackendPool([NativeBackend(capacity_bytes=10)])
        with pytest.raises(GpuMemoryError, match="'big'"):
            pool.allocate(20, "big")

    def test_release(self):
        pool = BackendPool([NativeBackend(capacity_bytes=100)])
        placement = pool.allocate(40, "s")
        assert pool.allocated_bytes == 40
        pool.release(placement)
        assert pool.allocated_bytes == 0

    def test_elapsed_is_busiest_backend(self):
        a, b = SimulatedGpuBackend(), SimulatedGpuBackend()
        pool = BackendPool([a, b])
        a.launch("k", n_blocks=1, ops_per_thread=10.0)
        b.launch("k", n_blocks=64, ops_per_thread=1000.0)
        assert pool.elapsed_s == max(a.elapsed_s, b.elapsed_s) == b.elapsed_s
        pool.reset_time()
        assert pool.elapsed_s == 0.0
