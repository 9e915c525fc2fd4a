"""The :class:`ComputeBackend` protocol — SMiLer's pluggable compute layer.

Every layer above the kernels (index construction, Suffix kNN Search,
the SMiLer facade, the serving layer) talks to *one* interface that owns
the three concerns a compute substrate has:

* **kernel dispatch** — banded/unbanded DTW verification and device
  k-selection (the filter → verify → select pipeline's numeric work),
* **device-memory accounting** — a malloc/free ledger so a serving pool
  can place sensors by free space and refuse admission when full,
* **time attribution** — an ``elapsed_s`` ledger of simulated kernel
  seconds (zero for backends that do not model time).

Two implementations ship, both built on :class:`SubstrateBackend` (one
:class:`~repro.gpu.device.MemoryLedger`, one lock, one pickling rule,
one place inputs are coerced):

* :class:`repro.backend.SimulatedGpuBackend` — owns a
  :class:`~repro.gpu.costmodel.GpuCostModel` its kernels charge; the
  default, and the only backend the paper-figure harness should use (its
  entire point is the simulated-time ledger).
* :class:`repro.backend.NativeBackend` — straight vectorised NumPy with
  no cost-model bookkeeping; the serving fast path.

To add a backend (CuPy, torch, a remote worker pool), implement this
protocol — numerical contracts are documented per method — and register
a name in :func:`make_backend`; no other layer needs to change.  To add
a *kernel*, add it to the protocol, to :class:`SubstrateBackend` (input
handling), to the two ``_run_*`` hooks and to the fault wrapper — one
dispatch layer, no device underneath it.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from typing import Protocol, runtime_checkable

import numpy as np

from ..dtw.distance import launch_work
from ..gpu.device import Allocation, GpuMemoryError, MemoryLedger
from ..obs import hooks as obs

__all__ = [
    "Allocation",
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "ComputeBackend",
    "GpuMemoryError",
    "SubstrateBackend",
    "as_backend",
    "default_backend",
    "kernel_domain",
    "make_backend",
]

#: Environment variable selecting the default backend (``simulated`` when
#: unset).  CI runs the tier-1 suite under both values.
BACKEND_ENV_VAR = "REPRO_BACKEND"


@runtime_checkable
class ComputeBackend(Protocol):
    """What the index/core/serving layers require of a compute substrate.

    Numerical contract: for identical inputs every backend must return
    *identical* answers — ``dtw_verification``/``full_dtw`` produce the
    same float64 distances and ``k_select`` resolves ties by lowest
    index — so that kNN answer sets and downstream forecasts are
    bit-identical across backends (pinned by the parity tests).
    """

    #: Short backend identifier (``"simulated"``, ``"native"``, ...).
    name: str

    # ------------------------------------------------------------- kernels
    def dtw_verification(
        self,
        query: np.ndarray,
        candidates: np.ndarray,
        rho: int,
        lengths=None,
        need=None,
    ) -> np.ndarray:
        """Banded (Sakoe-Chiba ``rho``) DTW of many candidates against
        one ``(d,)`` query, or — ``query`` of shape ``(n, d)`` — candidate
        ``i`` against query row ``i`` (one launch fused across sensors).

        With ``lengths`` (strictly ascending suffix lengths; those a row
        needs at most ``d``) the answer is ``(n, len(lengths))``: row
        ``i``'s DTW of its
        ``lengths[l]``-suffixes for ``l < need[i]``, ``inf`` beyond — one
        end-anchored wavefront per row answers every length it needs
        (:func:`repro.dtw.distance.dtw_batch`)."""
        ...

    def full_dtw(self, query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Unbanded DTW of one query vs many candidates (GPUScan baseline)."""
        ...

    def k_select(self, values: np.ndarray, k: int, offsets=None):
        """Indices of the k smallest values, sorted ascending, ties by index.

        With ``offsets`` (rising strictly from 0 to ``values.size``) the
        selection is segmented: one kernel op selects within every
        ``values[offsets[i]:offsets[i + 1]]`` and returns one flat array
        of indices into ``values``: each segment's ``min(k, segment
        size)`` picks, in segment order — exactly what the plain call
        returns for that segment, plus its offset; values holding NaN
        raise :class:`ValueError`.
        """
        ...

    def launch(
        self,
        name: str,
        n_blocks: int,
        ops_per_thread: float,
        threads_per_block: int = 256,
    ) -> float:
        """Attribute one abstract kernel launch; returns simulated seconds.

        Backends that do not model time return 0.0 and may ignore the
        arguments entirely.
        """
        ...

    # ---------------------------------------------------------------- time
    @property
    def elapsed_s(self) -> float:
        """Simulated kernel seconds since the last reset (0.0 if unmodelled)."""
        ...

    def reset_time(self) -> None:
        """Zero the simulated-time ledger."""
        ...

    def rearm_lock(self) -> None:
        """Replace every lock this backend holds with a fresh one.

        A forked shard worker inherits locks in whatever state some
        other parent thread held them; it calls this once, before
        serving, from a quiesced state.
        """
        ...

    # -------------------------------------------------------------- memory
    def malloc(self, nbytes: int, label: str = "buffer") -> Allocation:
        """Reserve device memory; raises :class:`GpuMemoryError` when full."""
        ...

    def free(self, handle: Allocation) -> None:
        """Release a previous allocation."""
        ...

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently allocated on this backend."""
        ...

    @property
    def free_bytes(self) -> int:
        """Bytes still available (drives greedy pool placement)."""
        ...


#: Process-wide instance sequence for telemetry-stable backend ids.
_BACKEND_SEQ = itertools.count()


class SubstrateBackend:
    """What the shipped backends share: ledger, identity, lock, inputs.

    Owns the :class:`~repro.gpu.device.MemoryLedger`, the process-unique
    ``backend_id`` and the single re-entrant lock that serializes every
    ledger (and, in subclasses, cost-model) mutation, so a backend shared
    across serving lanes (mid-request failover builds an index on a peer
    backend while that peer's own lane is running) never loses an
    update.  Within one lane operations are already serial, so the lock
    is uncontended on the happy path.

    The public kernel methods coerce and validate their inputs once and
    hand the numeric work to the ``_run_*`` hooks, which are the only
    things a subclass implements; time is unmodelled (``elapsed_s`` is
    0.0) unless a subclass overrides the clock methods.
    """

    name: str

    def __init__(self, capacity_bytes: int) -> None:
        #: Process-unique identity stamped on telemetry (event-log lines,
        #: lane spans, Chrome-trace track names).
        self.backend_id = f"{self.name}-{next(_BACKEND_SEQ)}"
        self.ledger = MemoryLedger(capacity_bytes, self.backend_id)
        self.rearm_lock()

    def rearm_lock(self) -> None:
        """Install a fresh lock (construction, unpickling, after fork)."""
        self._lock = threading.RLock()

    # ------------------------------------------------------------- kernels
    def dtw_verification(
        self,
        query: np.ndarray,
        candidates: np.ndarray,
        rho: int,
        lengths=None,
        need=None,
    ) -> np.ndarray:
        """Banded DTW of many candidates against one query (``(d,)``) or
        one query each (``(n, d)``); every needed suffix length with
        ``lengths`` (see :class:`ComputeBackend`)."""
        with obs.span("dtw_verification", self) as sp:
            candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
            if sp is not None:
                sp.attrs.update(launch_work(candidates.shape, rho, lengths, need))
            if candidates.shape[0] == 0:
                return np.empty(0 if lengths is None else (0, len(lengths)))
            return self._run_dtw_verification(query, candidates, rho, lengths, need)

    def full_dtw(self, query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Unbanded DTW of one query against many candidates."""
        candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
        if candidates.shape[0] == 0:
            return np.empty(0)
        return self._run_full_dtw(query, candidates)

    def k_select(self, values: np.ndarray, k: int, offsets=None):
        """Indices of the k smallest values, ascending, ties by index;
        per segment when ``offsets`` is given (see :class:`ComputeBackend`).

        The plain call is the one-segment case of the same kernel op.  A
        NaN has no rank: values holding any raise :class:`ValueError`.
        """
        with obs.span("k_select", self) as sp:
            if sp is not None:  # one row each of the stacked selection
                sp.attrs["segments"] = 1 if offsets is None else len(offsets) - 1
            values = np.asarray(values, dtype=np.float64)
            if values.ndim != 1:
                raise ValueError("k_select expects a 1-D array")
            if k <= 0:
                raise ValueError(f"k must be positive, got {k}")
            if math.isnan(np.minimum.reduce(values, initial=np.inf)):
                nan = np.count_nonzero(np.isnan(values))
                raise ValueError(
                    f"k_select cannot rank NaN: {nan} of {values.size} values are NaN"
                )
            if offsets is None:
                if values.size == 0:
                    raise ValueError("cannot select from an empty array")
                return self._run_k_select(values, k, (0, values.size))
            offsets = np.asarray(offsets, dtype=np.intp)
            if (
                offsets.ndim != 1
                or offsets.size < 2
                or offsets[0] != 0
                or offsets[-1] != values.size
                or not (np.diff(offsets) > 0).all()
            ):
                raise ValueError(
                    "offsets must rise strictly from 0 to values.size "
                    f"({values.size}): no segment may be empty, got {offsets.tolist()}"
                )
            return self._run_k_select(values, k, offsets)

    def launch(
        self,
        name: str,
        n_blocks: int,
        ops_per_thread: float,
        threads_per_block: int = 256,
    ) -> float:
        """No time model: every launch is free."""
        return 0.0

    # ---------------------------------------------------------------- time
    @property
    def elapsed_s(self) -> float:
        """Always 0.0 — time is not modelled."""
        return 0.0

    def reset_time(self) -> None:
        """Nothing to reset."""

    # -------------------------------------------------------------- memory
    def malloc(self, nbytes: int, label: str = "buffer") -> Allocation:
        """Reserve ledger bytes; raises :class:`GpuMemoryError` when full."""
        with self._lock:
            return self.ledger.malloc(nbytes, label)

    def free(self, handle: Allocation) -> None:
        """Release a previous allocation (double frees are errors)."""
        with self._lock:
            self.ledger.free(handle)

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently recorded in the ledger."""
        return self.ledger.allocated_bytes

    @property
    def free_bytes(self) -> int:
        """Remaining capacity (drives greedy pool placement)."""
        return self.ledger.free_bytes

    # ------------------------------------------------------------- pickling
    # Backends cross the process boundary when a shard worker flushes its
    # state back to the serving process; each side owns its own lock.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.rearm_lock()


#: Registered backend names accepted by :func:`make_backend` and the CLI.
BACKEND_NAMES = ("simulated", "native")


def make_backend(
    name: str, fault_profile: object = None, **kwargs
) -> "ComputeBackend":
    """Construct a backend by registered name.

    ``kwargs`` are forwarded to the backend constructor (e.g. ``spec=``
    for the simulated backend, ``capacity_bytes=`` for the native one).
    ``fault_profile`` (a :class:`~repro.faults.FaultProfile`, a profile
    name, or a ``key=value`` spec string) wraps the result in a
    :class:`~repro.faults.FaultInjectingBackend`; ``None`` or a null
    profile leaves the backend unwrapped.
    """
    from .native import NativeBackend
    from .simulated import SimulatedGpuBackend

    if name == "simulated":
        backend: "ComputeBackend" = SimulatedGpuBackend(**kwargs)
    elif name == "native":
        backend = NativeBackend(**kwargs)
    else:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(BACKEND_NAMES)}"
        )
    if fault_profile is not None:
        from ..faults import FaultInjectingBackend, as_fault_profile

        profile = as_fault_profile(fault_profile)
        if profile is not None:
            return FaultInjectingBackend(backend, profile)
    return backend


def default_backend() -> "ComputeBackend":
    """A fresh backend of the process-default kind.

    The kind is ``simulated`` unless the ``REPRO_BACKEND`` environment
    variable names another registered backend; the ``REPRO_FAULT_PROFILE``
    environment variable additionally wraps it in deterministic fault
    injection (see :mod:`repro.faults`).
    """
    from ..faults import FAULT_PROFILE_ENV_VAR

    return make_backend(
        os.environ.get(BACKEND_ENV_VAR, "simulated"),
        fault_profile=os.environ.get(FAULT_PROFILE_ENV_VAR),
    )


#: The kernel domain every unwrapped :class:`NativeBackend` shares.
HOST_DOMAIN = "host"


@functools.cache
def _on_host(cls: type) -> bool:
    """Whether instances of ``cls`` run their kernels as pure host
    functions: exactly :class:`NativeBackend`, not a subclass that could
    override a kernel."""
    from .native import NativeBackend

    return cls is NativeBackend


def kernel_domain(backend: object) -> object:
    """The domain whose backends may serve one fused lane, a key to
    group by.

    Every unwrapped :class:`NativeBackend` returns :data:`HOST_DOMAIN`:
    its kernels are pure functions, ``launch`` is a no-op and there is
    no clock or fault stream, so which of them runs a launch changes no
    bit and no ledger.  Any other backend is its own domain — a
    simulated backend has its own clock, a fault-injecting one its own
    tick sequence.
    """
    return HOST_DOMAIN if _on_host(type(backend)) else backend


def kernel_seconds(backend: object, names: tuple[str, ...]) -> float:
    """The simulated seconds ``backend``'s per-kernel ledger holds for the
    kernels ``names`` (0.0 on a backend that does not model time)."""
    ledger = getattr(getattr(backend, "cost", None), "per_kernel_s", {})
    return sum(ledger.get(name, 0.0) for name in names)


@functools.cache
def _backend_class(cls: type) -> bool:
    """Whether ``cls`` itself holds every :class:`ComputeBackend` member,
    so its instances pass the runtime protocol check — which re-walks the
    protocol and reads every property on each call (tens of µs)."""
    members = (*vars(ComputeBackend), *ComputeBackend.__annotations__)
    return all(
        getattr(cls, name, None) is not None
        for name in members if not name.startswith("_")
    )


def as_backend(obj: object = None) -> "ComputeBackend":
    """Coerce ``obj`` to a :class:`ComputeBackend`.

    ``None`` yields a fresh :func:`default_backend`; a backend passes
    through unchanged; anything else is a ``TypeError``.
    """
    if obj is None:
        return default_backend()
    if _backend_class(type(obj)) or isinstance(obj, ComputeBackend):
        return obj
    raise TypeError(
        f"expected a ComputeBackend or None, got {type(obj).__name__}"
    )
