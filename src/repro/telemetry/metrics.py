"""Labeled metric series: counters, gauges, and histograms.

A :class:`MetricsRegistry` owns every metric for one trainer/run.  Metrics
are identified by ``(name, labels)`` so the same logical quantity can be
tracked per series — e.g. ``loss{term="NCE(f1, f1+)"}`` alongside
``loss{term="NCE(f2, f2+)"}`` — in the style of Prometheus client
libraries, but storing full in-process history (this stack has no scrape
loop; benchmarks and the run reporter read the snapshot directly).

Metrics are written from more than one thread — the
:class:`~repro.serving.EmbeddingService` batcher thread increments
counters while the main thread reads snapshots — so every metric carries
its own lock and the registry guards its series table.  ``inc()`` is a
read-modify-write; without the lock, concurrent increments lose updates.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Tuple, Type, Union

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_series_name",
]

Labels = Tuple[Tuple[str, str], ...]


def format_series_name(name: str, labels: Labels) -> str:
    """Prometheus-style ``name{key="value", ...}`` rendering."""
    if not labels:
        return name
    inner = ", ".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


class _Metric:
    """Common identity plumbing for all metric kinds.

    Each metric owns a non-reentrant lock; accessors must read raw state
    directly under it (never through another locked property, which
    would self-deadlock).
    """

    kind = "metric"

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def full_name(self) -> str:
        return format_series_name(self.name, self.labels)

    def snapshot(self) -> Dict[str, object]:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count (steps, images, events)."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> float:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"kind": self.kind, "value": self._value}


class Gauge(_Metric):
    """Point-in-time value that also remembers its full series.

    ``set()`` appends to the series; ``value`` is the latest sample.  The
    series makes gauges double as per-step traces (grad norm, epoch loss)
    without a separate time-series store.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: Labels) -> None:
        super().__init__(name, labels)
        self._series: List[float] = []

    def set(self, value: float) -> None:
        with self._lock:
            self._series.append(float(value))

    @property
    def value(self) -> Optional[float]:
        with self._lock:
            return self._series[-1] if self._series else None

    @property
    def series(self) -> Tuple[float, ...]:
        with self._lock:
            return tuple(self._series)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "kind": self.kind,
                "value": self._series[-1] if self._series else None,
                "count": len(self._series),
            }


class Histogram(_Metric):
    """Distribution of observed values with exact percentiles.

    Observations are kept in full (runs here are small enough that exact
    quantiles beat bucketed approximations); ``percentile`` uses linear
    interpolation like ``numpy.percentile``.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: Labels) -> None:
        super().__init__(name, labels)
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    def _copy_values(self) -> List[float]:
        with self._lock:
            return list(self._values)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._values)

    @property
    def sum(self) -> float:
        values = self._copy_values()
        return float(np.sum(values)) if values else 0.0

    @property
    def mean(self) -> float:
        values = self._copy_values()
        return float(np.mean(values)) if values else float("nan")

    @property
    def min(self) -> float:
        values = self._copy_values()
        return float(np.min(values)) if values else float("nan")

    @property
    def max(self) -> float:
        values = self._copy_values()
        return float(np.max(values)) if values else float("nan")

    def percentile(self, q: float) -> float:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        values = self._copy_values()
        if not values:
            return float("nan")
        return float(np.percentile(values, q))

    def snapshot(self) -> Dict[str, object]:
        # One consistent copy; computing from locked properties would
        # both re-acquire the lock and mix epochs between fields.
        values = self._copy_values()
        if not values:
            return {"kind": self.kind, "count": 0}
        return {
            "kind": self.kind,
            "count": len(values),
            "sum": float(np.sum(values)),
            "mean": float(np.mean(values)),
            "min": float(np.min(values)),
            "max": float(np.max(values)),
            "p50": float(np.percentile(values, 50)),
            "p90": float(np.percentile(values, 90)),
            "p99": float(np.percentile(values, 99)),
        }


MetricType = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Factory and store for one run's metric series.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: requesting
    the same ``(name, labels)`` twice returns the same object, so trainers
    and callbacks can share series without passing references around.

    The registry lock is an RLock because ``load_state_dict`` get-or-
    creates while already holding it; individual metric objects guard
    their own recorded data.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[Tuple[str, Labels], MetricType] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, object]) -> Tuple[str, Labels]:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _get_or_create(
        self, cls: Type[MetricType], name: str, labels: Dict[str, object]
    ) -> MetricType:
        key = self._key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(key[0], key[1])
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {metric.full_name!r} already registered as "
                    f"{metric.kind}, not {cls.kind}"
                )
            return metric

    def counter(self, name: str, /, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, /, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, /, **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    def series(self, name: str) -> List[MetricType]:
        """Every metric registered under ``name`` (across label sets)."""
        with self._lock:
            return [m for (n, _), m in self._metrics.items() if n == name]

    def __iter__(self) -> Iterator[MetricType]:
        with self._lock:
            return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return any(n == name for n, _ in self._metrics)

    def collect(self) -> Dict[str, Dict[str, object]]:
        """Snapshot of every series keyed by its rendered full name."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {m.full_name: m.snapshot() for m in metrics}

    # -- checkpointing ----------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Full JSON-friendly dump of every metric's recorded data.

        Unlike :meth:`collect` (a summary snapshot), this preserves the
        complete gauge/histogram series so a resumed run's metrics — and
        anything derived from them, like the CQ trainer's ``grad_norm``
        history — continue exactly where they left off.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        entries = []
        for metric in metrics:
            entry: Dict[str, object] = {
                "name": metric.name,
                "labels": [list(pair) for pair in metric.labels],
                "kind": metric.kind,
            }
            with metric._lock:
                if isinstance(metric, Counter):
                    entry["value"] = metric._value
                elif isinstance(metric, Gauge):
                    entry["series"] = list(metric._series)
                else:
                    entry["values"] = list(metric._values)
            entries.append(entry)
        return {"metrics": entries}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` dump.

        Metrics are get-or-created and refilled *in place*, so a metric
        object fetched before the restore keeps tracking the restored
        series.
        """
        kinds = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        with self._lock:
            for entry in state["metrics"]:
                cls = kinds[entry["kind"]]
                labels = {key: value for key, value in entry["labels"]}
                metric = self._get_or_create(cls, entry["name"], labels)
                with metric._lock:
                    if cls is Counter:
                        metric._value = float(entry["value"])
                    elif cls is Gauge:
                        metric._series[:] = [float(v) for v in entry["series"]]
                    else:
                        metric._values[:] = [
                            float(v) for v in entry["values"]
                        ]
