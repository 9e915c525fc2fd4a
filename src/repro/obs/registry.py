"""Process-wide metrics registry: counters, gauges and histograms.

The registry is the passive half of the observability layer (the active
half — the hot-path hooks gated by the global enable switch — lives in
:mod:`repro.obs.hooks`).  Metrics follow the Prometheus data model:

* :class:`Counter` — monotonically non-decreasing totals,
* :class:`Gauge` — instantaneous values that move both ways,
* :class:`Histogram` — bucketed distributions with ``sum`` and ``count``.

Every metric carries a fixed set of *label names*; each distinct label
*value* combination is one independent time series.  A per-metric
cardinality cap guards against unbounded label explosions (a sensor id
typo in a loop must fail loudly, not eat the process's memory).

Counters and histograms additionally accept an OpenMetrics-style
**exemplar** — a tiny label dict (typically ``{"request_id": ...}``)
stored *per series*, last write wins.  Exemplars are how unbounded
identifiers ride along with bounded-cardinality metrics: the series
stays one time series, but every sample can still be traced back to the
request that most recently moved it (see ``to_json`` exposition).

All mutating operations are thread-safe: the registry guards its metric
table and every metric guards its own series map, so concurrent
increments from worker threads never lose updates.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSeries",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LabelCardinalityError",
]

#: Default histogram buckets — latency-shaped (seconds), Prometheus style.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class LabelCardinalityError(RuntimeError):
    """Raised when a metric exceeds its label-cardinality cap."""


def _label_key(
    metric: "_MetricBase", labels: dict[str, object]
) -> tuple[str, ...]:
    """Canonical series key: label values in declared label-name order."""
    if set(labels) != set(metric.label_names):
        raise ValueError(
            f"metric {metric.name!r} expects labels {metric.label_names}, "
            f"got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in metric.label_names)


class _MetricBase:
    """Shared naming/labeling/cardinality machinery."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...] = (),
        max_series: int = 1000,
    ) -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        if max_series <= 0:
            raise ValueError(f"max_series must be positive, got {max_series}")
        self.name = name
        self.help = help
        self.label_names = tuple(str(n) for n in label_names)
        self.max_series = max_series
        self._series: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _series_slot(self, key: tuple[str, ...], factory):
        """Get-or-create one series under the lock (caller holds nothing)."""
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                raise LabelCardinalityError(
                    f"metric {self.name!r} exceeded {self.max_series} label "
                    f"combinations; refusing {key}"
                )
            series = self._series[key] = factory()
        return series

    def labels_of(self, key: tuple[str, ...]) -> dict[str, str]:
        """Reconstruct the label dict of one series key."""
        return dict(zip(self.label_names, key))

    def series_keys(self) -> list[tuple[str, ...]]:
        """All live series keys, sorted for stable exposition."""
        with self._lock:
            return sorted(self._series)


class _Cell:
    """One mutable float slot (counters and gauges)."""

    __slots__ = ("value", "exemplar")

    def __init__(self) -> None:
        self.value = 0.0
        self.exemplar: dict[str, str] | None = None


class Counter(_MetricBase):
    """A monotonically non-decreasing total."""

    kind = "counter"

    def inc(
        self,
        amount: float = 1.0,
        exemplar: dict[str, object] | None = None,
        **labels,
    ) -> None:
        """Add ``amount`` (must be >= 0) to the series named by ``labels``.

        ``exemplar`` (keyword-only, e.g. ``{"request_id": rid}``) is
        retained on the series, last write wins.
        """
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        key = _label_key(self, labels)
        with self._lock:
            cell = self._series_slot(key, _Cell)
            cell.value += amount
            if exemplar is not None:
                cell.exemplar = {k: str(v) for k, v in exemplar.items()}

    def value(self, **labels) -> float:
        """Current total of one series (0.0 if never incremented)."""
        key = _label_key(self, labels)
        with self._lock:
            cell = self._series.get(key)
            return cell.value if cell is not None else 0.0

    def exemplar(self, **labels) -> dict[str, str] | None:
        """The series' most recent exemplar (None if never attached)."""
        key = _label_key(self, labels)
        with self._lock:
            cell = self._series.get(key)
            return None if cell is None else cell.exemplar


class Gauge(_MetricBase):
    """An instantaneous value that can move both ways."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Overwrite the series value."""
        key = _label_key(self, labels)
        with self._lock:
            self._series_slot(key, _Cell).value = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (may be negative)."""
        key = _label_key(self, labels)
        with self._lock:
            self._series_slot(key, _Cell).value += amount

    def value(self, **labels) -> float:
        """Current value of one series (0.0 if never set)."""
        key = _label_key(self, labels)
        with self._lock:
            cell = self._series.get(key)
            return cell.value if cell is not None else 0.0


class HistogramSeries:
    """Bucket counts + sum + count for one label combination."""

    __slots__ = ("bucket_counts", "sum", "count", "exemplar")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets  # cumulative at exposition time
        self.sum = 0.0
        self.count = 0
        self.exemplar: dict[str, str] | None = None

    def observe(self, value: float, bounds: tuple[float, ...]) -> None:
        # Non-cumulative per-bucket tally; cumulated on read.
        for i, bound in enumerate(bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1  # +Inf bucket
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts (Prometheus ``le`` semantics)."""
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float, bounds: tuple[float, ...]) -> float:
        """Bucket-interpolated quantile estimate (q in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        cumulative = self.cumulative()
        for i, c in enumerate(cumulative):
            if c >= target:
                lo = bounds[i - 1] if i > 0 else 0.0
                hi = bounds[i] if i < len(bounds) else math.inf
                prev = cumulative[i - 1] if i > 0 else 0
                in_bucket = c - prev
                if in_bucket == 0 or not math.isfinite(hi):
                    # +Inf bucket (or empty): the last finite bound is the
                    # best defensible estimate.
                    return lo
                return lo + (hi - lo) * (target - prev) / in_bucket
        return bounds[-1]


class Histogram(_MetricBase):
    """A bucketed distribution with ``_sum`` and ``_count``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
        max_series: int = 1000,
    ) -> None:
        super().__init__(name, help, label_names, max_series)
        bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"buckets must be strictly increasing: {bounds}")
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds  # +Inf bucket is implicit (index len(bounds))

    def observe(
        self,
        value: float,
        exemplar: dict[str, object] | None = None,
        **labels,
    ) -> None:
        """Record one observation into the series named by ``labels``.

        ``exemplar`` (keyword-only) is retained on the series, last
        write wins — see :class:`Counter.inc`.
        """
        key = _label_key(self, labels)
        with self._lock:
            series = self._series_slot(
                key, lambda: HistogramSeries(len(self.bounds) + 1)
            )
            series.observe(float(value), self.bounds)
            if exemplar is not None:
                series.exemplar = {k: str(v) for k, v in exemplar.items()}

    def series(self, **labels) -> HistogramSeries | None:
        """The raw series record (None if never observed)."""
        key = _label_key(self, labels)
        with self._lock:
            return self._series.get(key)

    def quantile(self, q: float, **labels) -> float:
        """Bucket-interpolated quantile of one series (NaN when empty)."""
        record = self.series(**labels)
        if record is None:
            return math.nan
        return record.quantile(q, self.bounds)


class MetricsRegistry:
    """Named collection of metrics with get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: dict[str, _MetricBase] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", label_names: tuple[str, ...] = (),
        max_series: int = 1000,
    ) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(
            Counter, name, help, label_names=label_names, max_series=max_series
        )

    def gauge(
        self, name: str, help: str = "", label_names: tuple[str, ...] = (),
        max_series: int = 1000,
    ) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(
            Gauge, name, help, label_names=label_names, max_series=max_series
        )

    def histogram(
        self, name: str, help: str = "", label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None, max_series: int = 1000,
    ) -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create(
            Histogram, name, help, label_names=label_names, buckets=buckets,
            max_series=max_series,
        )

    def get(self, name: str) -> _MetricBase | None:
        """Look up a metric by name (None when absent)."""
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[_MetricBase]:
        """All registered metrics, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every metric (tests and fresh experiment runs)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------- cross-process merge
    def dump_state(self) -> dict[str, list[dict]]:
        """Every series' *values* as JSON-safe rows, keyed by metric name.

        The metrics half of the cross-process telemetry delta (see
        :func:`repro.obs.hooks.drain`).  Declarations (kind, help, label
        names, buckets) do not ride along: :meth:`merge_state` folds the
        rows into metrics the receiving registry already declares.
        Exemplars do, so request-id joins survive the process hop.
        """
        state: dict[str, list[dict]] = {}
        for metric in self.metrics():
            rows = state[metric.name] = []
            with metric._lock:
                for key in sorted(metric._series):
                    series = metric._series[key]
                    row: dict = {"labels": list(key)}
                    if isinstance(series, HistogramSeries):
                        row["bucket_counts"] = list(series.bucket_counts)
                        row["sum"] = series.sum
                        row["count"] = series.count
                    else:
                        row["value"] = series.value
                    row["exemplar"] = series.exemplar
                    rows.append(row)
        return state

    def merge_state(self, state: dict[str, list[dict]]) -> None:
        """Fold a :meth:`dump_state` snapshot from another process in:
        counters add, gauges last-write-win, histograms merge bucket-wise.
        A name this registry has not declared raises ``KeyError``."""
        for name, rows in state.items():
            metric = self.get(name)
            if metric is None:
                raise KeyError(f"cannot merge undeclared metric {name!r}")
            for row in rows:
                key = tuple(row["labels"])
                with metric._lock:
                    if isinstance(metric, Histogram):
                        series = metric._series_slot(
                            key,
                            lambda m=metric: HistogramSeries(len(m.bounds) + 1),
                        )
                        for i, c in enumerate(row["bucket_counts"]):
                            series.bucket_counts[i] += int(c)
                        series.sum += float(row["sum"])
                        series.count += int(row["count"])
                    else:
                        series = metric._series_slot(key, _Cell)
                        if isinstance(metric, Counter):
                            series.value += float(row["value"])
                        else:  # gauge: instantaneous, last write wins
                            series.value = float(row["value"])
                    if row["exemplar"] is not None:
                        series.exemplar = dict(row["exemplar"])

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
