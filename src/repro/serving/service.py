"""Asynchronous embedding service with request micro-batching.

``submit()`` enqueues one sample and returns a :class:`ServingFuture`;
a single batcher thread drains the queue, coalesces up to
``max_batch_size`` requests (waiting at most ``max_wait_ms`` for
stragglers), groups them by input shape, and runs one model forward per
group.  The model is resolved from a :class:`~repro.serving.ModelRegistry`
on every batch, so publishing a new version under the service's name
hot-swaps the weights without a restart.  Between batches the service
keeps only the served version's key and its compiled plans, so once a
batch has run on a newly published version nothing in the service
refers to the old one.

Concurrency is plain ``threading`` on purpose: process-level parallelism
lives in :mod:`repro.parallel` (lint rule RPR006), and the service is
I/O-shaped — one compute thread, many cheap waiters.  ``ServingFuture``
is a deliberately small Event-backed future rather than an import of
``concurrent.futures``.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import ExecutionEngine
from ..nn.autograd import no_grad
from ..nn.tensor import Tensor
from ..telemetry import MetricsRegistry
from .registry import ModelRegistry

__all__ = ["EmbeddingService", "ServingFuture"]

_SHUTDOWN = object()


class ServingFuture:
    """Single-assignment result slot backed by a ``threading.Event``."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def set_result(self, value: np.ndarray) -> None:
        self._value = value
        self._event.set()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until resolved; re-raises a service-side failure."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"embedding not ready within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value


class _Request:
    __slots__ = ("x", "future", "enqueued")

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        self.future = ServingFuture()
        self.enqueued = time.perf_counter()


class EmbeddingService:
    """Micro-batching embedding server over a registry-resolved model.

    Parameters
    ----------
    registry, model_name:
        Where to resolve the serving model; the live published version
        is re-resolved on every batch.
    max_batch_size, max_wait_ms:
        Batching knobs: a batch launches as soon as it is full or the
        oldest request has waited ``max_wait_ms``.
    metrics:
        Optional shared :class:`~repro.telemetry.MetricsRegistry`; the
        service creates a private one when omitted.  Series:
        ``serving.requests`` / ``serving.batches`` / ``serving.errors``
        counters, ``serving.engine_plan_hits`` /
        ``serving.engine_plan_misses`` / ``serving.engine_retraces`` /
        ``serving.engine_fallbacks`` counters, ``serving.latency_ms`` /
        ``serving.batch_size`` histograms, all labelled
        ``model=<model_name>``.
    engine:
        ``"trace"`` (default) compiles one forward plan per (model
        version, batch shape) and replays it — the ops an eager forward
        runs, each on its own kernel — and a ``Parameter.version`` bump
        (in-place republish of live weights) retraces automatically.
        ``"eager"`` runs every forward through the module graph.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        model_name: str,
        *,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        metrics: Optional[MetricsRegistry] = None,
        engine: str = "trace",
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.registry = registry
        self.model_name = model_name
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.engine = ExecutionEngine(mode=engine, training=False)
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._served_key: Optional[Tuple[str, int]] = None
        labels = {"model": model_name}
        self._m_requests = self.metrics.counter("serving.requests", **labels)
        self._m_batches = self.metrics.counter("serving.batches", **labels)
        self._m_errors = self.metrics.counter("serving.errors", **labels)
        self._m_latency = self.metrics.histogram("serving.latency_ms",
                                                 **labels)
        self._m_batch_size = self.metrics.histogram("serving.batch_size",
                                                    **labels)
        self._m_engine = {
            key: self.metrics.counter(f"serving.engine_{key}", **labels)
            for key in ("plan_hits", "plan_misses", "retraces", "fallbacks")
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "EmbeddingService":
        if self._running:
            return self
        self._running = True
        self._thread = threading.Thread(
            target=self._batch_loop,
            name=f"embedding-service[{self.model_name}]",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Drain-free shutdown: pending requests fail with RuntimeError."""
        if not self._running:
            return
        self._running = False
        self._queue.put(_SHUTDOWN)
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, _Request):
                item.future.set_exception(
                    RuntimeError("embedding service stopped")
                )

    def __enter__(self) -> "EmbeddingService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- client API --------------------------------------------------------

    def submit(self, x: np.ndarray) -> ServingFuture:
        """Enqueue one sample (no batch axis); returns its future."""
        if not self._running:
            raise RuntimeError(
                "embedding service is not running; call start() or use "
                "it as a context manager"
            )
        request = _Request(np.asarray(x))
        self._m_requests.inc()
        self._queue.put(request)
        return request.future

    def embed(self, x: np.ndarray,
              timeout: Optional[float] = 30.0) -> np.ndarray:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(x).result(timeout)

    def embed_many(self, xs: Sequence[np.ndarray],
                   timeout: Optional[float] = 30.0) -> List[np.ndarray]:
        futures = [self.submit(x) for x in xs]
        return [f.result(timeout) for f in futures]

    def pending(self) -> int:
        return self._queue.qsize()

    # -- batcher thread ----------------------------------------------------

    def _batch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                if not self._running:
                    return
                continue
            if first is _SHUTDOWN:
                return
            batch = [first]
            deadline = time.perf_counter() + self.max_wait_ms / 1000.0
            while len(batch) < self.max_batch_size:
                remaining = deadline - time.perf_counter()
                try:
                    if remaining > 0:
                        item = self._queue.get(timeout=remaining)
                    else:
                        item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SHUTDOWN:
                    self._queue.put(_SHUTDOWN)
                    break
                batch.append(item)
            self._run_batch(batch)

    def _run_batch(self, requests: List[_Request]) -> None:
        groups: Dict[Tuple[int, ...], List[_Request]] = {}
        for request in requests:
            groups.setdefault(request.x.shape, []).append(request)
        for group in groups.values():
            self._serve_group(group)

    def _serve_group(self, requests: List[_Request]) -> None:
        try:
            entry = self.registry.get(self.model_name)
            if entry.key != self._served_key:
                # A new version supersedes every plan traced for the old one.
                self.engine.invalidate()
                entry.model.eval()
                self._served_key = entry.key
            stacked = np.stack([request.x for request in requests])
            out = self._forward(entry, stacked)
            self._m_batches.inc()
            self._m_batch_size.observe(float(len(requests)))
            finished = time.perf_counter()
            for request, row in zip(requests, out):
                self._m_latency.observe(
                    (finished - request.enqueued) * 1000.0
                )
                request.future.set_result(row)
        except BaseException as exc:  # propagate to callers, keep serving
            self._m_errors.inc(len(requests))
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(exc)

    def _forward(self, entry, stacked: np.ndarray) -> np.ndarray:
        """One batched forward, replayed from a compiled plan when possible.

        Plans are keyed on (model version, batch shape): a hot-swap
        publishes a new registry key, which drops the old version's plans
        (see :meth:`_serve_group`) and traces fresh ones, while an
        in-place mutation of the served weights bumps
        ``Parameter.version`` and fails the plan's staleness guard, so
        either route retraces instead of serving stale math.
        """
        x = Tensor(stacked, dtype=np.float64)
        signature = (entry.key, stacked.shape, str(x.data.dtype))

        def eager_fn():
            with no_grad():
                return entry.model(x), {}

        before = self.engine.stats()
        result = self.engine.execute(signature, {"x": x}, None, eager_fn)
        for key, counter in self._m_engine.items():
            delta = self.engine.stats()[key] - before[key]
            if delta:
                counter.inc(delta)
        return np.asarray(result.root)
