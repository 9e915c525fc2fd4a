"""Backend pools: placement, allocation and backend *health* in one place.

Section 6.4.1's scale-out option 1 (shard sensors over multiple GPUs)
generalised to any :class:`~repro.backend.base.ComputeBackend`:
:meth:`BackendPool.allocate` places each reservation on the healthy
backend with the most free memory (greedy balancing, ties to the lowest
index) and raises :class:`~repro.gpu.device.GpuMemoryError` only when
the whole pool is exhausted.  The serving layer routes *every* admission
— ``register``, ``restore``, evacuation — through this method, so
placement policy lives in exactly one place.

Health lives here too.  Each backend carries a :class:`BackendHealth`
record driven by a classic circuit breaker:

* **closed** — normal operation; consecutive failures are counted,
* **open** — tripped after :attr:`BreakerConfig.failure_threshold`
  consecutive failures (or an explicit :meth:`mark_unhealthy`); open
  backends are skipped by placement,
* **half_open** — after :attr:`BreakerConfig.cooldown_ops` pool
  operations an open breaker admits probes again; one success closes
  it, one failure re-trips it.

The pool *fails open*: if every breaker is open, placement falls back to
trying all backends anyway — a fully-degraded pool should still attempt
to serve rather than refuse outright.  Breakers gate placement only;
callers (the serving layer) decide when a forecast failure counts
against a backend via :meth:`record_failure` / :meth:`record_success`.

Thread safety: one re-entrant lock guards the operation counter, every
health record and every placement/ledger mutation, so concurrent serving
lanes (see :class:`~repro.service.ServiceConfig`) can record outcomes
and trigger failover placements without losing updates.  Reads that must
be atomic (``status()`` surfaces) go through :meth:`health_dict`;
:meth:`health` still hands out the live record for single-threaded
callers and tests.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Iterable

from ..gpu.device import Allocation, GpuMemoryError
from ..obs import hooks as obs
from .base import ComputeBackend, as_backend

__all__ = [
    "BackendHealth",
    "BackendPool",
    "BreakerConfig",
    "Placement",
]

logger = logging.getLogger(__name__)

#: Circuit-breaker state names (values of :attr:`BackendHealth.state`).
_CLOSED, _OPEN, _HALF_OPEN = "closed", "open", "half_open"


@dataclass(frozen=True)
class Placement:
    """One reservation: which backend, and the allocation handle on it."""

    backend_index: int
    allocation: Allocation


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker tuning shared by every backend in a pool."""

    #: Consecutive failures that trip a closed breaker open.
    failure_threshold: int = 3
    #: Pool operations an open breaker waits before admitting a probe.
    cooldown_ops: int = 16

    def __post_init__(self) -> None:
        if self.failure_threshold <= 0:
            raise ValueError(
                f"failure_threshold must be positive, got {self.failure_threshold}"
            )
        if self.cooldown_ops <= 0:
            raise ValueError(
                f"cooldown_ops must be positive, got {self.cooldown_ops}"
            )


@dataclass
class BackendHealth:
    """Mutable health record of one backend in a pool."""

    state: str = _CLOSED
    consecutive_failures: int = 0
    opened_at_op: int = 0
    failures_total: int = 0
    successes_total: int = 0
    trips: int = 0

    def as_dict(self) -> dict:
        """JSON-friendly record for ``status()`` surfaces."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failures_total": self.failures_total,
            "successes_total": self.successes_total,
            "trips": self.trips,
        }


class BackendPool:
    """A fixed set of backends sharing one placement policy and one
    health model."""

    def __init__(
        self,
        backends: Iterable[object],
        breaker: BreakerConfig | None = None,
    ) -> None:
        self.backends: list[ComputeBackend] = [as_backend(b) for b in backends]
        if not self.backends:
            raise ValueError("a pool needs at least one backend")
        self.breaker = breaker or BreakerConfig()
        self._health = [BackendHealth() for _ in self.backends]
        self._op = 0
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self.backends)

    def backend(self, placement: Placement) -> ComputeBackend:
        """The backend a placement lives on."""
        return self.backends[placement.backend_index]

    # -------------------------------------------------------------- health
    def health(self, index: int) -> BackendHealth:
        """The live health record of one backend (advances cooldowns).

        The returned record is mutable and shared; use :meth:`health_dict`
        when you need a point-in-time snapshot under concurrency.
        """
        with self._lock:
            self._maybe_half_open(index)
            return self._health[index]

    def health_dict(self, index: int) -> dict:
        """Atomic JSON snapshot of one backend's health record."""
        with self._lock:
            self._maybe_half_open(index)
            return self._health[index].as_dict()

    def state(self, index: int) -> str:
        """Breaker state of one backend: closed, open or half_open."""
        return self.health(index).state

    def admits(self, index: int) -> bool:
        """Whether placement may use this backend (breaker not open)."""
        return self.state(index) != _OPEN

    def record_success(self, index: int, count: int = 1) -> None:
        """``count`` successful operations (a lane's sensors served by
        one fused call), recorded as that many calls would be: the op
        clock and the success total advance by ``count`` — breaker
        cool-downs land on the same op tick — the failure streak resets,
        and a probe success closes the breaker."""
        if count <= 0:
            return
        with self._lock:
            self._op += count
            health = self._health[index]
            health.consecutive_failures = 0
            health.successes_total += count
            if health.state != _CLOSED:
                self._transition(index, _CLOSED)

    def record_failure(self, index: int) -> None:
        """One failed operation: extend the streak; trip at the threshold,
        and re-trip instantly from half_open (the probe failed)."""
        with self._lock:
            self._op += 1
            health = self._health[index]
            health.failures_total += 1
            health.consecutive_failures += 1
            if health.state == _HALF_OPEN:
                self._transition(index, _OPEN)
            elif (
                health.state == _CLOSED
                and health.consecutive_failures >= self.breaker.failure_threshold
            ):
                self._transition(index, _OPEN)

    def mark_unhealthy(self, index: int) -> None:
        """Force a backend's breaker open (operator or failover decision)."""
        with self._lock:
            self._op += 1
            health = self._health[index]
            health.consecutive_failures = max(
                health.consecutive_failures, self.breaker.failure_threshold
            )
            if health.state != _OPEN:
                self._transition(index, _OPEN)

    def adopt_health(self, index: int, fields: dict) -> None:
        """Replace one backend's health record with counters shipped from
        another process's pool (the shard worker's view is authoritative
        for its backend while a process-engine generation is live).

        ``opened_at_op`` is re-anchored to *this* pool's operation
        counter — cooldowns are measured in local pool ops, and the
        worker's counter is meaningless here.  Nothing is emitted: the
        worker's own transitions already reached this process in its
        drained telemetry (counter, event and ``smiler_backend_state``
        gauge), so each is counted once.
        """
        with self._lock:
            self._op += 1
            health = self._health[index]
            new_state = str(fields["state"])
            if new_state == _OPEN and health.state != _OPEN:
                health.opened_at_op = self._op
            health.state = new_state
            health.consecutive_failures = int(fields["consecutive_failures"])
            health.failures_total = int(fields["failures_total"])
            health.successes_total = int(fields["successes_total"])
            health.trips = int(fields["trips"])

    def _maybe_half_open(self, index: int) -> None:
        health = self._health[index]
        if (
            health.state == _OPEN
            and self._op - health.opened_at_op >= self.breaker.cooldown_ops
        ):
            self._transition(index, _HALF_OPEN)

    def _transition(self, index: int, new_state: str) -> None:
        health = self._health[index]
        old_state = health.state
        if old_state == new_state:
            return
        health.state = new_state
        if new_state == _OPEN:
            health.opened_at_op = self._op
            health.trips += 1
        logger.info(
            "backend %d (%s): breaker %s -> %s",
            index, self.backends[index].name, old_state, new_state,
        )
        obs.observe_breaker_transition(index, old_state, new_state)
        obs.observe_backend_state(index, new_state)

    # ----------------------------------------------------------- placement
    def allocate(self, nbytes: int, label: str) -> Placement:
        """Reserve ``nbytes`` on the healthy backend with the most free
        memory.

        Open-circuit backends are skipped (unless *every* breaker is open,
        in which case all backends are tried — fail open).  Backends are
        tried in free-memory order (stable, so equally-free backends fill
        lowest-index first); a capacity refusal (:class:`GpuMemoryError`)
        moves on without a health penalty, any other failure counts
        against the backend's breaker.  Exhausting every candidate raises
        :class:`GpuMemoryError`.
        """
        with self._lock:
            return self._allocate_locked(nbytes, label)

    def _allocate_locked(self, nbytes: int, label: str) -> Placement:
        self._op += 1
        order = sorted(
            range(len(self.backends)),
            key=lambda i: self.backends[i].free_bytes,
            reverse=True,
        )
        candidates = [i for i in order if self.admits(i)]
        skipped = len(order) - len(candidates)
        if not candidates:
            candidates = order
        last_error: Exception | None = None
        for index in candidates:
            try:
                allocation = self.backends[index].malloc(nbytes, label)
            except GpuMemoryError as error:
                # Full is not unhealthy: no breaker penalty for capacity.
                last_error = error
                continue
            except Exception as error:
                last_error = error
                self.record_failure(index)
                logger.debug(
                    "backend %d failed malloc for %r: %s", index, label, error
                )
                continue
            if self._health[index].state != _CLOSED:
                self.record_success(index)  # successful probe
            return Placement(backend_index=index, allocation=allocation)
        raise GpuMemoryError(
            f"no backend in the pool can host {label!r}"
            + (f" ({skipped} skipped circuit-open)" if skipped else "")
            + f": {last_error}"
        )

    def release(self, placement: Placement) -> None:
        """Free a previous reservation."""
        with self._lock:
            self.backend(placement).free(placement.allocation)

    # ---------------------------------------------------------- aggregates
    @property
    def allocated_bytes(self) -> int:
        """Bytes reserved across the whole pool."""
        with self._lock:
            return sum(b.allocated_bytes for b in self.backends)

    @property
    def elapsed_s(self) -> float:
        """Fleet time: backends run in parallel, so the busiest one wins."""
        return max(b.elapsed_s for b in self.backends)

    def reset_time(self) -> None:
        """Zero every backend's simulated-time ledger."""
        with self._lock:
            for backend in self.backends:
                backend.reset_time()
