"""SLOs: per-class latency objectives and rolling error budgets.

SMiLer's pitch is *bounded-latency* semi-lazy prediction, so the
telemetry layer tracks the bound explicitly.  Each request class (the
service entry points: ``forecast``, ``forecast_all``, ``ingest``,
``ingest_many``, ``restore``) carries an :class:`SLOTarget` — a latency
objective plus an attainment target over a rolling sample window.  The
:class:`SLOTracker` consumes one sample per completed request and
answers two operator questions:

* **attainment** — what fraction of the window met the objective,
* **error budget** — of the violations the target permits over the
  window, how much is left (negative = overdrawn).

The tracker is registry-agnostic; :mod:`repro.obs.hooks` mirrors its
state into Prometheus metrics (``smiler_slo_*``) on every request end,
so scrapes and :meth:`repro.service.PredictionService.status` see the
same numbers.  The third question — how many forecasts each
degradation-ladder rung served (a request can meet its latency SLO
*because* it degraded) — is answered by ``smiler_forecasts_total``
alone, every ``source`` but ``ensemble``
(:func:`repro.obs.hooks.served_degraded`).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Mapping

__all__ = ["SLOTarget", "SLOTracker", "DEFAULT_SLOS"]


@dataclass(frozen=True)
class SLOTarget:
    """One request class's objective: latency bound + attainment target."""

    #: A request meets the SLO when it succeeds within this many seconds.
    objective_s: float
    #: Required fraction of requests meeting the objective over the window.
    target: float = 0.99
    #: Rolling window length, in requests.
    window: int = 512

    def __post_init__(self) -> None:
        if self.objective_s <= 0.0:
            raise ValueError(
                f"objective_s must be positive, got {self.objective_s}"
            )
        if not 0.0 < self.target <= 1.0:
            raise ValueError(f"target must be in (0, 1], got {self.target}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")


#: Default objectives per service entry point.  Deliberately permissive —
#: they are operating bounds, not benchmarks; tighten per deployment via
#: :func:`repro.obs.hooks.configure_slo`.
DEFAULT_SLOS: dict[str, SLOTarget] = {
    "forecast": SLOTarget(objective_s=0.5),
    "forecast_all": SLOTarget(objective_s=5.0),
    "ingest": SLOTarget(objective_s=0.5),
    "ingest_many": SLOTarget(objective_s=5.0),
    "restore": SLOTarget(objective_s=30.0),
}

#: Objective applied to request classes with no configured target.
FALLBACK_TARGET = SLOTarget(objective_s=5.0)


class _ClassWindow:
    """Rolling met/missed window plus lifetime tallies for one class."""

    __slots__ = ("samples", "met_in_window", "total", "breaches_total")

    def __init__(self, window: int) -> None:
        self.samples: deque[bool] = deque(maxlen=window)
        self.met_in_window = 0
        self.total = 0
        self.breaches_total = 0

    def record(self, met: bool) -> None:
        if len(self.samples) == self.samples.maxlen and self.samples[0]:
            self.met_in_window -= 1
        self.samples.append(met)
        if met:
            self.met_in_window += 1
        else:
            self.breaches_total += 1
        self.total += 1


class SLOTracker:
    """Thread-safe rolling SLO accounting over request classes."""

    def __init__(
        self, objectives: Mapping[str, SLOTarget] | None = None
    ) -> None:
        self._objectives = dict(DEFAULT_SLOS if objectives is None else objectives)
        self._windows: dict[str, _ClassWindow] = {}
        self._lock = threading.Lock()

    # -------------------------------------------------------------- config
    def objective(self, class_: str) -> SLOTarget:
        """The target governing one request class."""
        return self._objectives.get(class_, FALLBACK_TARGET)

    def configure(self, objectives: Mapping[str, SLOTarget]) -> None:
        """Replace/extend per-class targets (existing windows survive)."""
        with self._lock:
            self._objectives.update(objectives)

    # ------------------------------------------------------------ recording
    def record(self, class_: str, latency_s: float, ok: bool = True) -> bool:
        """Consume one completed request; returns whether it met the SLO.

        A request meets its SLO when it succeeded *and* finished within
        the class objective.  Errors always burn budget.
        """
        target = self.objective(class_)
        met = bool(ok) and latency_s <= target.objective_s
        with self._lock:
            window = self._windows.get(class_)
            if window is None:
                window = self._windows[class_] = _ClassWindow(target.window)
            window.record(met)
        return met

    # -------------------------------------------------------------- queries
    def attainment(self, class_: str) -> float:
        """Fraction of the rolling window meeting the SLO (NaN if empty)."""
        with self._lock:
            window = self._windows.get(class_)
            if window is None or not window.samples:
                return math.nan
            return window.met_in_window / len(window.samples)

    def error_budget_remaining(self, class_: str) -> float:
        """Fraction of the window's violation budget still unspent.

        The budget is ``(1 - target) * window_samples``; 1.0 means the
        budget is untouched, 0.0 means exactly spent, negative means
        overdrawn.  An empty window reports a full budget.
        """
        target = self.objective(class_)
        with self._lock:
            window = self._windows.get(class_)
            if window is None or not window.samples:
                return 1.0
            n = len(window.samples)
            violations = n - window.met_in_window
            budget = (1.0 - target.target) * n
            if budget <= 0.0:
                return 1.0 if violations == 0 else -float(violations)
            return (budget - violations) / budget

    def classes(self) -> list[str]:
        """Request classes with at least one recorded sample, sorted."""
        with self._lock:
            return sorted(self._windows)

    def snapshot(self) -> dict:
        """JSON-friendly state for ``status()`` and the stats CLI."""
        out: dict = {"classes": {}}
        for class_ in self.classes():
            target = self.objective(class_)
            with self._lock:
                window = self._windows[class_]
                samples = len(window.samples)
                total = window.total
                breaches = window.breaches_total
            out["classes"][class_] = {
                "objective_s": target.objective_s,
                "target": target.target,
                "window": target.window,
                "window_samples": samples,
                "requests_total": total,
                "breaches_total": breaches,
                "attainment": self.attainment(class_),
                "error_budget_remaining": self.error_budget_remaining(class_),
            }
        return out

    def reset(self) -> None:
        """Forget every window (objectives survive)."""
        with self._lock:
            self._windows.clear()
