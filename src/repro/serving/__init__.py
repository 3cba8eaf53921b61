"""Embedding-serving layer over the integer inference engine.

The deployment story for a converted model
(:func:`repro.quant.convert`):

- :class:`ModelRegistry` — in-process registry holding one live
  :class:`ModelVersion` per name (``publish`` replaces it and bumps the
  version); snapshots a ``Parameter.version`` fingerprint at publish
  time so in-place edits of a published model are detectable
  (:meth:`ModelRegistry.is_stale`).
- :class:`EmbeddingService` — async request micro-batching server: one
  batcher thread coalesces ``submit()`` calls into shape-grouped
  batches, runs one forward per group on the live published model
  (hot swap), and reports latency/throughput through a
  :class:`repro.telemetry.MetricsRegistry`.
- :func:`run_load` — closed-loop load generator producing a
  :class:`LoadReport` (p50/p99 latency, QPS); the backbone of
  ``benchmarks/bench_serving.py``.
"""

from .loadgen import LoadReport, run_load
from .registry import ModelRegistry, ModelVersion, fingerprint
from .service import EmbeddingService, ServingFuture

__all__ = [
    "EmbeddingService",
    "LoadReport",
    "ModelRegistry",
    "ModelVersion",
    "ServingFuture",
    "fingerprint",
    "run_load",
]
