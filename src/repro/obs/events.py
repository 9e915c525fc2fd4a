"""Bounded structured event log: the narrative half of observability.

Metrics aggregate, traces time — the event log *narrates*: request
start/end, degradation-rung transitions, circuit-breaker state changes,
fault injections and evacuations land here as flat JSON-friendly dicts,
each stamped with the correlation triple (``request_id``, ``sensor_id``,
``backend_id``) so a log line, a metric exemplar and a span from the
same request all join on the same id.

The log is a fixed-capacity in-memory ring buffer: past capacity the
oldest events fall off (``dropped_total`` counts them, so operators can
tell a quiet system from a saturated buffer).  Emission is one lock,
one dict and one deque append — and :mod:`repro.obs.hooks` only calls
it when instrumentation is enabled, so the serving hot path pays a flag
check when telemetry is off.

Every event carries two clocks:

* ``ts`` — ``time.time()`` epoch seconds, for humans and log shipping,
* ``mono_s`` — ``time.perf_counter()`` seconds, the same monotonic
  clock spans use, so the Chrome exporter can lay event instants onto
  the span timeline without cross-clock skew.
"""

from __future__ import annotations

import io
import json
import threading
import time
from collections import deque
from typing import Iterable

from . import context as reqctx

__all__ = ["EventLog"]

#: Default ring capacity — roomy enough for thousands of requests,
#: bounded so a chatty fleet can never eat the process's memory.
DEFAULT_CAPACITY = 4096


class EventLog:
    """Thread-safe fixed-capacity ring buffer of structured events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._dropped = 0

    # ------------------------------------------------------------- writing
    def emit(
        self,
        kind: str,
        *,
        request_id: str | None = None,
        sensor_id: str | None = None,
        backend_id: object = None,
        **fields,
    ) -> dict:
        """Append one event; returns the stored record.

        ``request_id`` defaults to the request bound to the calling
        thread (:func:`repro.obs.context.current_request_id`), which is
        how lane-thread emissions correlate with their entry point
        without every call site threading the id through.
        """
        if request_id is None:
            request_id = reqctx.current_request_id()
        event = {
            "ts": time.time(),
            "mono_s": time.perf_counter(),
            "kind": str(kind),
            "request_id": request_id,
            "sensor_id": sensor_id,
            "backend_id": backend_id,
        }
        for name, value in fields.items():
            if value is not None:
                event[name] = value
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(event)
        return event

    def absorb(self, events: Iterable[dict], dropped: int = 0) -> None:
        """Merge events drained from another process's log into this one.

        Shard workers ship their retained events (plus their own drop
        count) with every batch reply and on the final flush, so nothing
        a worker narrated is lost when its process exits.  Worker
        timestamps (``ts`` / ``mono_s``) are preserved — both clocks are
        comparable across processes — but ``seq`` is re-stamped from this
        log's counter so ordering stays consistent ring-wide.
        """
        events = list(events)
        with self._lock:
            for event in events:
                event = dict(event)
                event["seq"] = self._seq
                self._seq += 1
                if len(self._ring) == self.capacity:
                    self._dropped += 1
                self._ring.append(event)
            self._dropped += int(dropped)
            self._seq += int(dropped)

    # ------------------------------------------------------------- reading
    def tail(self, n: int | None = None) -> list[dict]:
        """The most recent ``n`` events, oldest first (all when None)."""
        with self._lock:
            events = list(self._ring)
        if n is not None:
            if n < 0:
                raise ValueError(f"n must be non-negative, got {n}")
            events = events[len(events) - min(n, len(events)):]
        return events

    def to_jsonl(self, events: Iterable[dict] | None = None) -> str:
        """Render events (default: the whole ring) as JSON Lines."""
        buffer = io.StringIO()
        for event in self.tail() if events is None else events:
            buffer.write(json.dumps(event, sort_keys=True, default=str))
            buffer.write("\n")
        return buffer.getvalue()

    # ------------------------------------------------------------ plumbing
    @property
    def dropped_total(self) -> int:
        """Events evicted by the ring bound since the last clear."""
        with self._lock:
            return self._dropped

    @property
    def emitted_total(self) -> int:
        """Events ever emitted (retained + dropped) since the last clear."""
        with self._lock:
            return self._seq

    def clear(self) -> None:
        """Drop every retained event and zero the counters."""
        with self._lock:
            self._ring.clear()
            self._seq = 0
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)
