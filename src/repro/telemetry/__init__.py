"""Metrics, tracing, and trainer event telemetry.

Three cooperating layers:

- :mod:`repro.telemetry.metrics` — ``MetricsRegistry`` with labeled
  ``Counter`` / ``Gauge`` / ``Histogram`` series.
- :mod:`repro.telemetry.tracing` — ``Timer`` / ``span()`` region timing
  and ``profile()``, an opt-in autograd op profiler that aggregates
  per-op forward/backward wall-clock (conv vs matmul vs elementwise).
- :mod:`repro.telemetry.events` + :mod:`repro.telemetry.callbacks` —
  the ``Callback``/``EventBus`` protocol every trainer emits through
  (``on_fit_start/on_epoch_start/on_step/on_epoch_end/on_fit_end``) and
  the built-ins: ``JsonlLogger``, ``ConsoleProgress``,
  ``EarlyDivergenceGuard``, ``ThroughputMeter``.

Run logs written by ``JsonlLogger`` are summarised by
``python -m repro.telemetry.report <runs-dir>``.
"""

from .callbacks import (
    CheckpointCallback,
    ConsoleProgress,
    EarlyDivergenceGuard,
    JsonlLogger,
    ThroughputMeter,
    iter_records,
)
from .events import EVENTS, Callback, EventBus, TrainingDiverged
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_series_name,
)
from .tracing import OpProfiler, OpStat, Timer, profile, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_series_name",
    "Timer",
    "span",
    "OpProfiler",
    "OpStat",
    "profile",
    "EVENTS",
    "Callback",
    "EventBus",
    "TrainingDiverged",
    "CheckpointCallback",
    "JsonlLogger",
    "ConsoleProgress",
    "EarlyDivergenceGuard",
    "ThroughputMeter",
    "iter_records",
]
