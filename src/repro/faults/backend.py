"""A :class:`ComputeBackend` wrapper that injects deterministic faults.

:class:`FaultInjectingBackend` sits between the serving stack and any
real backend and misbehaves exactly as its :class:`FaultProfile` says:
kernel calls raise :class:`KernelFaultError`, mallocs raise
:class:`~repro.gpu.device.GpuMemoryError`, kernel outputs come back
NaN-corrupted, every call picks up simulated latency, and — past
``dies_at_tick`` — the whole backend is dead
(:class:`BackendDeadError` on every operation, memory included).

The wrapper is transparent for everything it does not sabotage: the
``name`` mirrors the inner backend (a faulted "simulated" backend still
reports ``simulated``) and unknown attributes (``spec``, ``cost``,
``ledger``) delegate to the inner backend.  Injection decisions consume
one seeded RNG stream in operation order, so identical workloads under
identical profiles fail identically — the whole point of a fault model
you can write regression tests against.

Each wrapper owns a re-entrant lock held for the whole of every wrapped
operation, making the (tick, RNG draw, inner call, corruption draw)
tuple atomic: concurrent serving lanes can never tear the operation-tick
counter or interleave two operations' RNG draws.  Determinism then needs
only what the serving layer already guarantees — that each backend sees
its operations in a fixed order (one lane per backend shard).
"""

from __future__ import annotations

import logging
import threading

import numpy as np

from ..gpu.device import Allocation, GpuMemoryError
from ..obs import hooks as obs
from .profile import FaultProfile

__all__ = [
    "BackendDeadError",
    "FaultError",
    "FaultInjectingBackend",
    "KernelFaultError",
]

logger = logging.getLogger(__name__)


class FaultError(RuntimeError):
    """Base class for injected (non-memory) backend failures."""


class KernelFaultError(FaultError):
    """An injected kernel-execution failure (transient by construction)."""


class BackendDeadError(FaultError):
    """The backend passed its ``dies_at_tick`` — every operation fails."""


class FaultInjectingBackend:
    """Wrap a backend and inject failures per a seeded :class:`FaultProfile`."""

    def __init__(self, inner, profile: FaultProfile) -> None:
        if isinstance(inner, FaultInjectingBackend):
            raise ValueError("refusing to stack fault injectors")
        self.inner = inner
        self.profile = profile
        self._rng = np.random.default_rng(profile.seed)
        self._tick = 0
        self._injected_s = 0.0
        self._lock = threading.RLock()
        #: Injection counts by kind, for tests and diagnostics.
        self.injected: dict[str, int] = {
            "kernel_error": 0, "kernel_nan": 0, "malloc_error": 0,
            "latency": 0, "dead_op": 0,
        }

    @property
    def name(self) -> str:
        """The inner backend's name — fault injection is transparent."""
        return self.inner.name

    @property
    def tick(self) -> int:
        """Operations seen so far (kernel calls + memory operations)."""
        return self._tick

    def rearm_lock(self) -> None:
        """Fresh locks after ``fork``, here and on the wrapped backend."""
        self._lock = threading.RLock()
        self.inner.rearm_lock()

    # ----------------------------------------------------------- injection
    def _begin_op(self, operation: str) -> int:
        tick = self._tick
        self._tick += 1
        profile = self.profile
        if profile.dies_at_tick is not None and tick >= profile.dies_at_tick:
            self.injected["dead_op"] += 1
            obs.observe_fault_injected(operation, "dead_op")
            raise BackendDeadError(
                f"backend {self.name!r} died at tick {profile.dies_at_tick}; "
                f"{operation} attempted at tick {tick}"
            )
        return tick

    def _roll(self, rate: float, tick: int) -> bool:
        if rate <= 0.0 or not self.profile.in_burst(tick):
            return False
        return bool(self._rng.random() < rate)

    def _kernel_preamble(self, operation: str) -> int:
        tick = self._begin_op(operation)
        if self.profile.added_latency_s > 0.0:
            self._injected_s += self.profile.added_latency_s
            self.injected["latency"] += 1
        if self._roll(self.profile.kernel_error_rate, tick):
            self.injected["kernel_error"] += 1
            obs.observe_fault_injected(operation, "kernel_error")
            logger.debug("injected kernel fault in %s at tick %d", operation, tick)
            raise KernelFaultError(
                f"injected {operation} fault at tick {tick} "
                f"({self.name!r} backend)"
            )
        return tick

    def _maybe_corrupt(self, operation: str, tick: int, out: np.ndarray) -> np.ndarray:
        if out.size == 0 or not self._roll(self.profile.kernel_nan_rate, tick):
            return out
        self.injected["kernel_nan"] += 1
        obs.observe_fault_injected(operation, "kernel_nan")
        corrupted = np.array(out, dtype=np.float64, copy=True)
        corrupted[int(self._rng.integers(corrupted.size))] = np.nan
        logger.debug("injected NaN into %s output at tick %d", operation, tick)
        return corrupted

    # ------------------------------------------------------------- kernels
    def dtw_verification(
        self,
        query: np.ndarray,
        candidates: np.ndarray,
        rho: int,
    ) -> np.ndarray:
        """Banded DTW (one query or one per candidate — one operation
        either way), possibly failing or NaN-corrupted per the profile."""
        with self._lock:
            tick = self._kernel_preamble("dtw_verification")
            out = self.inner.dtw_verification(query, candidates, rho)
            return self._maybe_corrupt("dtw_verification", tick, out)

    def full_dtw(self, query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Unbanded DTW, possibly failing or NaN-corrupted per the profile."""
        with self._lock:
            tick = self._kernel_preamble("full_dtw")
            out = self.inner.full_dtw(query, candidates)
            return self._maybe_corrupt("full_dtw", tick, out)

    def k_select(self, values: np.ndarray, k: int, offsets=None):
        """Device k-selection, plain or segmented — one operation either
        way (indices are never NaN-corrupted)."""
        with self._lock:
            self._kernel_preamble("k_select")
            return self.inner.k_select(values, k, offsets)

    def launch(
        self,
        name: str,
        n_blocks: int,
        ops_per_thread: float,
        threads_per_block: int = 256,
    ) -> float:
        """Pass through — kernel entry points already paid the injection."""
        return self.inner.launch(name, n_blocks, ops_per_thread, threads_per_block)

    # ---------------------------------------------------------------- time
    @property
    def elapsed_s(self) -> float:
        """Inner simulated seconds plus everything injected as latency."""
        return self.inner.elapsed_s + self._injected_s

    @property
    def injected_s(self) -> float:
        """Simulated seconds injected as latency since the last reset."""
        return self._injected_s

    def reset_time(self) -> None:
        """Zero both the inner ledger and the injected-latency ledger."""
        with self._lock:
            self.inner.reset_time()
            self._injected_s = 0.0

    def set_elapsed(self, elapsed_s: float, injected_s: float = 0.0) -> None:
        """Overwrite both clocks: ``injected_s`` stays here, the rest of
        ``elapsed_s`` is the inner backend's reading."""
        with self._lock:
            self._injected_s = injected_s
            self.inner.set_elapsed(elapsed_s - injected_s)

    # -------------------------------------------------------------- memory
    def malloc(self, nbytes: int, label: str = "buffer") -> Allocation:
        """Reserve inner memory, unless the profile fails this malloc."""
        with self._lock:
            tick = self._begin_op("malloc")
            if self._roll(self.profile.malloc_error_rate, tick):
                self.injected["malloc_error"] += 1
                obs.observe_fault_injected("malloc", "malloc_error")
                raise GpuMemoryError(
                    f"injected malloc failure for {label!r} at tick {tick} "
                    f"({self.name!r} backend)"
                )
            return self.inner.malloc(nbytes, label)

    def free(self, handle: Allocation) -> None:
        """Release inner memory (fails only once the backend is dead)."""
        with self._lock:
            self._begin_op("free")
            self.inner.free(handle)

    @property
    def allocated_bytes(self) -> int:
        """Inner ledger passthrough."""
        return self.inner.allocated_bytes

    @property
    def free_bytes(self) -> int:
        """Inner ledger passthrough."""
        return self.inner.free_bytes

    # ------------------------------------------------------------- pickling
    # Wrapped backends cross the process boundary (RNG stream, tick and
    # injected-latency ledger included, so injection sequences continue
    # exactly where they left off); locks don't pickle, so each side owns
    # a fresh one (the transfer happens from a quiesced state).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __getattr__(self, attr: str):
        # Transparency for backend-specific extras (.spec, .cost, .ledger).
        # The explicit guard keeps attribute probes on a half-constructed
        # instance (unpickling) from recursing through ``self.inner``.
        if attr == "inner":
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjectingBackend({self.inner!r}, "
            f"profile={self.profile.name!r}, tick={self._tick})"
        )
