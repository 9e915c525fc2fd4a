"""Tests for the deterministic fault-injection layer (repro.faults)."""

import numpy as np
import pytest

from repro.backend import (
    GpuMemoryError,
    NativeBackend,
    SimulatedGpuBackend,
    make_backend,
)
from repro.faults import (
    FAULT_PROFILE_ENV_VAR,
    FAULT_PROFILE_NAMES,
    BackendDeadError,
    FaultInjectingBackend,
    FaultProfile,
    KernelFaultError,
    as_fault_profile,
    parse_fault_profile,
)


def wrapped(profile, inner=None):
    return FaultInjectingBackend(inner or NativeBackend(), profile)


QUERY = np.sin(np.arange(8.0))
CANDS = np.stack([np.sin(np.arange(8.0) + i / 7.0) for i in range(6)])


class TestFaultProfile:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultProfile(kernel_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultProfile(malloc_error_rate=-0.1)
        with pytest.raises(ValueError):
            FaultProfile(added_latency_s=-1e-9)
        with pytest.raises(ValueError):
            FaultProfile(dies_at_tick=-1)
        with pytest.raises(ValueError):
            FaultProfile(burst=(5, 5))

    def test_is_null(self):
        assert FaultProfile().is_null
        assert not FaultProfile(kernel_error_rate=0.1).is_null
        assert not FaultProfile(dies_at_tick=0).is_null

    def test_burst_window_half_open(self):
        profile = FaultProfile(burst=(3, 5))
        assert not profile.in_burst(2)
        assert profile.in_burst(3)
        assert profile.in_burst(4)
        assert not profile.in_burst(5)
        assert FaultProfile().in_burst(10**6)  # no burst = always on

    def test_named_profiles_parse(self):
        for name in FAULT_PROFILE_NAMES:
            profile = parse_fault_profile(name)
            assert profile.name == name

    def test_spec_parsing(self):
        profile = parse_fault_profile(
            "kernel_error=0.25,seed=7,burst=10:20,dies_at=99"
        )
        assert profile.kernel_error_rate == 0.25
        assert profile.seed == 7
        assert profile.burst == (10, 20)
        assert profile.dies_at_tick == 99

    def test_spec_with_named_base(self):
        profile = parse_fault_profile("flaky-kernels,seed=3")
        assert profile.kernel_error_rate == 0.05  # from the base
        assert profile.seed == 3  # overridden

    def test_spec_rejects_unknown_keys_and_names(self):
        with pytest.raises(ValueError, match="unknown fault-profile key"):
            parse_fault_profile("frobnicate=1")
        with pytest.raises(ValueError, match="unknown fault profile"):
            parse_fault_profile("not-a-profile")
        with pytest.raises(ValueError):
            parse_fault_profile("   ")

    def test_as_fault_profile_coercion(self):
        assert as_fault_profile(None) is None
        assert as_fault_profile("none") is None  # null profile -> no wrap
        assert as_fault_profile(FaultProfile()) is None
        profile = as_fault_profile("kernel_error=0.5")
        assert isinstance(profile, FaultProfile)
        with pytest.raises(TypeError):
            as_fault_profile(42)


class TestFaultInjectingBackend:
    def test_transparent_when_quiet(self):
        inner = NativeBackend()
        backend = wrapped(FaultProfile(seed=1), inner)
        assert backend.name == inner.name
        out = backend.dtw_verification(QUERY, CANDS, rho=2)
        np.testing.assert_array_equal(
            out, inner.dtw_verification(QUERY, CANDS, rho=2)
        )

    def test_refuses_stacking(self):
        backend = wrapped(FaultProfile())
        with pytest.raises(ValueError, match="stack"):
            FaultInjectingBackend(backend, FaultProfile())

    def test_deterministic_same_seed_same_faults(self):
        def trace(seed):
            backend = wrapped(FaultProfile(seed=seed, kernel_error_rate=0.4))
            events = []
            for _ in range(40):
                try:
                    backend.dtw_verification(QUERY, CANDS, rho=2)
                    events.append("ok")
                except KernelFaultError:
                    events.append("fault")
            return events

        assert trace(5) == trace(5)
        assert trace(5) != trace(6)  # different stream, different story

    def test_nan_corruption_marks_exactly_one_entry(self):
        backend = wrapped(FaultProfile(seed=0, kernel_nan_rate=1.0))
        out = backend.dtw_verification(QUERY, CANDS, rho=2)
        assert np.isnan(out).sum() == 1
        assert backend.injected["kernel_nan"] == 1

    @pytest.mark.parametrize("inner", [NativeBackend, SimulatedGpuBackend])
    def test_nan_corruption_of_a_suffix_launch_marks_one_whole_row(self, inner):
        """A launch reading several suffix lengths answers a row per
        candidate: the corruption takes one row at every length — one
        thread's output — and draws the row as a scalar launch draws its
        entry, so the seeded fault stream is the same."""
        lengths, need = (3, 5, 8), np.array([3, 3, 2, 2, 1, 1])
        rows = []
        for wide in (True, False):
            backend = wrapped(FaultProfile(seed=4, kernel_nan_rate=1.0), inner())
            out = backend.dtw_verification(
                QUERY, CANDS, 2, *((lengths, need) if wide else ())
            )
            corrupted = np.isnan(out) if wide else np.isnan(out)[:, None]
            (row,) = np.flatnonzero(corrupted.any(axis=1))
            assert corrupted[row].all() and corrupted.sum() == corrupted.shape[1]
            rows.append(row)
        assert rows[0] == rows[1]

    def test_k_select_never_corrupted(self):
        backend = wrapped(FaultProfile(seed=0, kernel_nan_rate=1.0))
        out = backend.k_select(np.array([3.0, 1.0, 2.0]), 2)
        np.testing.assert_array_equal(out, [1, 2])

    def test_dies_at_tick_kills_everything(self):
        backend = wrapped(FaultProfile(dies_at_tick=2))
        backend.dtw_verification(QUERY, CANDS, rho=2)  # tick 0
        backend.malloc(64, "ok")  # tick 1
        with pytest.raises(BackendDeadError):
            backend.dtw_verification(QUERY, CANDS, rho=2)
        with pytest.raises(BackendDeadError):
            backend.malloc(64, "dead")
        with pytest.raises(BackendDeadError):
            backend.free(object())
        assert backend.injected["dead_op"] == 3

    def test_burst_gates_the_rates(self):
        backend = wrapped(
            FaultProfile(seed=0, kernel_error_rate=1.0, burst=(2, 3))
        )
        backend.dtw_verification(QUERY, CANDS, rho=2)  # tick 0: pre-burst
        backend.dtw_verification(QUERY, CANDS, rho=2)  # tick 1: pre-burst
        with pytest.raises(KernelFaultError):
            backend.dtw_verification(QUERY, CANDS, rho=2)  # tick 2: burst
        backend.dtw_verification(QUERY, CANDS, rho=2)  # tick 3: post-burst

    def test_injected_latency_lands_in_elapsed(self):
        inner = SimulatedGpuBackend()
        backend = wrapped(FaultProfile(added_latency_s=1e-3), inner)
        backend.dtw_verification(QUERY, CANDS, rho=2)
        backend.full_dtw(QUERY, CANDS)
        assert backend.elapsed_s == pytest.approx(inner.elapsed_s + 2e-3)
        backend.reset_time()
        assert backend.elapsed_s == inner.elapsed_s == 0.0

    def test_malloc_fault_is_a_gpu_memory_error(self):
        backend = wrapped(FaultProfile(seed=0, malloc_error_rate=1.0))
        with pytest.raises(GpuMemoryError):
            backend.malloc(64, "buf")
        assert backend.injected["malloc_error"] == 1
        assert backend.allocated_bytes == 0  # nothing leaked on the inner

    def test_getattr_delegates_to_inner(self):
        inner = SimulatedGpuBackend()
        backend = wrapped(FaultProfile(), inner)
        assert backend.cost is inner.cost  # simulated-only extra
        assert backend.ledger is inner.ledger


class TestWiring:
    def test_make_backend_wraps(self):
        backend = make_backend("simulated", fault_profile="kernel_error=0.5")
        assert isinstance(backend, FaultInjectingBackend)
        assert backend.name == "simulated"

    def test_make_backend_skips_null_profiles(self):
        assert not isinstance(
            make_backend("native", fault_profile=None), FaultInjectingBackend
        )
        assert not isinstance(
            make_backend("native", fault_profile="none"), FaultInjectingBackend
        )

    def test_env_var_selects_profile(self, monkeypatch):
        from repro.backend import default_backend

        monkeypatch.setenv(FAULT_PROFILE_ENV_VAR, "flaky-kernels")
        backend = default_backend()
        assert isinstance(backend, FaultInjectingBackend)
        assert backend.profile.name == "flaky-kernels"
        monkeypatch.delenv(FAULT_PROFILE_ENV_VAR)
        assert not isinstance(default_backend(), FaultInjectingBackend)
