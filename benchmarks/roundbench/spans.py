"""The benchmark's own span recorder and timing arithmetic.

Spans are recorded here, around calls into the program's public
functions; nothing is added inside ``src/``.  They are kept in memory
and written out once, when the traced pass ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tracer",
    "durations_ms",
    "percentile_ms",
    "self_times_ns",
    "supported_percentile",
]

#: Percentiles a timing may be reported at, lowest first.
_LADDER = (50, 75, 90, 95, 99)


class Tracer:
    """In-memory span list: ``{id, parent, name, round, sensor, start_ns,
    end_ns}``.  Spans opened while another is open become its children;
    every span carries the round number current when it opened."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.round: int | None = None
        self._open: list[int] = []

    def add(
        self, name: str, start_ns: int, end_ns: int, sensor: str | None = None
    ) -> dict:
        """Record a span from timestamps the caller already took; it
        becomes a child of whatever span is open now."""
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "round": self.round,
            "sensor": sensor,
            "start_ns": start_ns,
            "end_ns": end_ns,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, sensor: str | None = None):
        record = self.add(name, 0, 0, sensor)
        self._open.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()


def durations_ms(spans: list[dict], name: str) -> list[float]:
    """Durations of every span called ``name``, in recording order."""
    return [
        (s["end_ns"] - s["start_ns"]) / 1e6 for s in spans if s["name"] == name
    ]


def self_times_ns(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        lo, hi = span["start_ns"], span["end_ns"]
        covered, edge = 0, lo
        for child in sorted(
            children.get(span["id"], ()), key=lambda c: c["start_ns"]
        ):
            start = max(child["start_ns"], edge)
            stop = min(child["end_ns"], hi)
            if stop > start:
                covered += stop - start
                edge = stop
        result[span["id"]] = (hi - lo) - covered
    return result


def supported_percentile(n: int) -> int | None:
    """The highest ladder percentile with at least ten samples beyond it
    (``None`` below 20 samples, where not even the median has ten)."""
    supported = [p for p in _LADDER if n * (100 - p) >= 1000]
    return supported[-1] if supported else None


def percentile_ms(samples_ms, p: int) -> float:
    return float(np.percentile(np.asarray(samples_ms, dtype=np.float64), p))
