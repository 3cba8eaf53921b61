"""Workload ``serve-embed``: int8 embedding service under open-loop load.

A calibrated, BatchNorm-folded int8 ResNet-18 (width 1/16) is lowered
by ``convert`` and served by ``EmbeddingService`` with its default
batching.  The batcher and the integer GEMM do the work; autograd and
retrieval sit idle.  Inputs are 32x32, so that the forward, not the
load generator, bounds the request rate.

The service runs with ``engine="eager"``.  Under the default
``engine="trace"`` the integer kernels return fresh constant tensors, so
a compiled plan replays the embeddings of the inputs it was traced on:
sampled outputs then miss the fake-quant reference by whole units, and
this workload's output check fails.  The eager path is the one that
serves correct embeddings.

Phase 1 sends a seeded Poisson stream at ``RATE``; phase 2 keeps
``WINDOW`` requests outstanding and counts completions per second.
"""

from __future__ import annotations

import copy
import statistics
import time
from typing import List

import numpy as np

from repro.models import resnet18
from repro.nn.autograd import no_grad
from repro.nn.tensor import Tensor
from repro.quant import calibrate, convert, freeze_reference, prepare
from repro.serving import EmbeddingService, ModelRegistry

from .common import (Result, chunk_percentiles, chunk_rates, peak_rss_mb,
                     percentile, rows_ms, wrap_engine)
from .loadgen import poisson_schedule, run_open_loop, run_window
from .spans import Recorder

IMAGE = 32
WIDTH = 0.0625
BITS = 8
POOL = 64
#: open-loop rate, req/s: about half the phase-2 throughput (920-1190
#: req/s on a 2-CPU host) of the commit that introduced this benchmark,
#: then frozen.
RATE = 460.0
#: requests kept outstanding in phase 2: two full default batches.
WINDOW = 64
TIMEOUT_S = 10.0
#: a phase-1 run whose sender ran later than this at p99 is invalid: the
#: generator fell behind its schedule (a host stall of a few ms is not).
LAG_P99_BOUND_MS = 20.0
SAMPLED = 32
SETUP_REPEATS = 7
MODEL = "encoder-int8"
#: convert()'s own verification tolerance against the fake-quant model.
RTOL, ATOL = 1e-3, 1e-5


class InvalidRun(RuntimeError):
    """The load generator could not keep to its schedule."""


def _setup(seed: int, calib: List[np.ndarray], pool: List[np.ndarray],
           recorder: Recorder = None, want_reference: bool = False):
    """Build, calibrate, convert, publish, start and warm the service.

    Returns ``(service, reference, seconds, convert_s)``; building the
    fake-quant reference (an oracle) is excluded from ``seconds``.
    """
    started = time.perf_counter()
    model = resnet18(stem="cifar", width_multiplier=WIDTH,
                     rng=np.random.default_rng(seed), norm="batch")
    prepare(model)
    quant_started = time.perf_counter()
    calibrate(model, calib, bits=BITS)
    reference, oracle_s = None, 0.0
    if want_reference:
        oracle_started = time.perf_counter()
        reference = freeze_reference(copy.deepcopy(model))
        oracle_s = time.perf_counter() - oracle_started
    convert(model, input_shape=(2, 3, IMAGE, IMAGE))
    convert_s = time.perf_counter() - quant_started - oracle_s
    registry = ModelRegistry()
    registry.publish(MODEL, model, tags=(f"int{BITS}",))
    service = EmbeddingService(registry, MODEL, engine="eager")
    if recorder is not None:
        wrap_engine(recorder, service.engine)
    service.start()
    _warm_up(service, pool)
    return (service, reference,
            time.perf_counter() - started - oracle_s, convert_s)


def _warm_up(service: EmbeddingService, pool: List[np.ndarray]) -> None:
    """One full batch, so lazily built integer weight operands exist."""
    service.embed_many([pool[i % len(pool)]
                        for i in range(service.max_batch_size)],
                       timeout=TIMEOUT_S)


def _batches(service: EmbeddingService) -> float:
    return service.metrics.counter("serving.batches", model=MODEL).value


class Phases:
    """Phase 1 (open loop) then phase 2 (fixed window) on one service."""

    def __init__(self, service: EmbeddingService, pool, seed: int,
                 seconds: float) -> None:
        rng = np.random.default_rng([seed, 1])
        offsets = poisson_schedule(RATE, seconds / 2, seed=seed)
        picks = rng.integers(0, len(pool), size=offsets.size)
        self.payloads = [pool[i] for i in picks]
        self.keep = rng.permutation(offsets.size)[:SAMPLED]
        engine0, batches0 = service.engine.stats(), _batches(service)
        self.phase1_start = time.perf_counter()
        self.open = run_open_loop(service.submit, self.payloads, offsets,
                                  timeout=TIMEOUT_S, pending=service.pending,
                                  keep=self.keep)
        self.phase2_start = time.perf_counter()
        self.window = run_window(service.submit, pool, WINDOW, seconds / 2,
                                 timeout=TIMEOUT_S)
        self.end = time.perf_counter()
        self.saturated_rps = self.window["rate"]
        self.engine = {key: value - engine0[key]
                       for key, value in service.engine.stats().items()}
        self.batches = _batches(service) - batches0

    @property
    def attempted(self) -> int:
        return int(self.open.due.size + self.window["attempted"])

    @property
    def failed(self) -> int:
        return int(self.open.failed.sum() + self.window["failed"])


def _check(res: Result, phases: Phases, reference) -> None:
    engine = phases.engine
    res.check("traffic: every timed forward runs the eager integer path",
              phases.batches > 0 and not any(engine.values()),
              f"batches={phases.batches:g} engine={engine}")
    res.check("output: no request refused, raised or timed out",
              phases.failed == 0,
              f"{phases.failed} of {phases.attempted}")
    kept = sorted(phases.open.outputs)
    if not kept:
        res.check("output: sampled embeddings == fake-quant reference",
                  False, "no sampled outputs")
        return
    stacked = np.stack([phases.payloads[i] for i in kept])
    with no_grad():
        expected = np.asarray(
            reference(Tensor(stacked, dtype=np.float64)).data)
    served = np.stack([phases.open.outputs[i] for i in kept])
    error = float(np.max(np.abs(served - expected)))
    res.check("output: sampled embeddings == fake-quant reference",
              np.allclose(served, expected, rtol=RTOL, atol=ATOL),
              f"{len(kept)} sampled, max abs error {error:.3g}")


def _forward_spans(recorder: Recorder, start: float, end: float):
    return [s for s in recorder.spans if s.name == "engine.execute"
            and start <= s.start < end]


def _trace_layers(res: Result, recorder: Recorder, phases: Phases,
                  convert_s: float, collect_s: float,
                  overhead_pct: float) -> None:
    """Map phase-1 requests onto the forwards that carried them.

    One FIFO batcher and no cache, so the k-th forward carries the next
    ``rows`` requests in submission order.  The checks test that mapping:
    the forwards carry exactly the phase-1 requests, and each request's
    forward starts after its submit returned and ends before its result
    was seen.
    """
    open_ = phases.open
    forwards = _forward_spans(recorder, phases.phase1_start,
                              phases.phase2_start)
    rows = np.array([s.info["rows"] for s in forwards], dtype=np.int64)
    requests = int(open_.due.size)
    res.check("trace: phase-1 forwards carry exactly the phase-1 requests",
              int(rows.sum()) == requests,
              f"rows={int(rows.sum())} requests={requests}")
    if int(rows.sum()) != requests:
        return
    carrier = np.repeat(np.arange(len(forwards)), rows)
    fwd_start = np.array([s.start for s in forwards])[carrier]
    fwd_end = np.array([s.end for s in forwards])[carrier]
    misplaced = int(np.sum((fwd_start < open_.submitted)
                           | (fwd_end > open_.seen)))
    res.check("trace: each request's forward runs between its submit and "
              "its result", misplaced == 0,
              f"{misplaced} of {requests} requests outside their forward")
    for i in range(requests):
        recorder.add("serving.submit", open_.sent[i], open_.submitted[i],
                     op=i)
    queue_wait = (fwd_start - open_.due) * 1e3
    complete = (open_.seen - fwd_end) * 1e3
    # Consecutive segments of each request's life; the last, from the end
    # of its forward until the collector holds the result, lies in no
    # timed call and is the residual.
    parts = {
        "loadgen.lag": open_.sent - open_.due,
        "serving.submit": open_.submitted - open_.sent,
        "serving.batch_wait": fwd_start - open_.submitted,
        "engine.execute": fwd_end - fwd_start,
        "residual": open_.seen - fwd_end,
    }
    per_request = rows_ms({k: float(np.sum(v)) for k, v in parts.items()},
                          requests)
    res.record["accounting_ms_per_request"] = {
        "operation": "phase-1 request, due time to result",
        "total": float(np.mean(open_.seen - open_.due)) * 1e3,
        "rows": per_request, "residual": "residual",
    }
    window_forwards = _forward_spans(recorder, phases.phase1_start,
                                     phases.end)
    traced = [s for s in recorder.spans if s.name == "engine.execute"
              and s.info["path"] == "trace"]
    res.per_layer.update({
        "engine.execute_ms.p50": percentile(
            [s.duration * 1e3 for s in window_forwards], 50),
        "engine.replay_share": (
            sum(s.info["path"] == "replay" for s in window_forwards)
            / len(window_forwards) if window_forwards else 0.0),
        "engine.trace_ms": sum(s.duration for s in traced) * 1e3,
        "quant.convert_s": convert_s,
        "serving.submit_us.p50": percentile(
            (open_.submitted - open_.sent) * 1e6, 50),
        "serving.queue_wait_ms.p50": percentile(queue_wait, 50),
        "serving.queue_wait_ms.p99": percentile(queue_wait, 99),
        "serving.batch_size.mean": float(rows.mean()) if rows.size else 0.0,
        "serving.complete_ms.p50": percentile(complete, 50),
        "serving.backlog_max": float(open_.backlog_max),
        "loadgen.lag_p99_ms": percentile(open_.lag_ms, 99),
        "telemetry.collect_ms": collect_s * 1e3,
        "residual.self_ms": per_request["residual"],
        "trace.overhead_pct": overhead_pct,
    })
    res.record["trace_samples"] = {"requests": int(open_.due.size),
                                   "forwards": len(forwards),
                                   "traced_plans": len(traced)}


def run(seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    rng = np.random.default_rng([seed, 0])
    calib = [rng.normal(size=(8, 3, IMAGE, IMAGE)).astype(np.float32)
             for _ in range(4)]
    pool = [rng.normal(size=(3, IMAGE, IMAGE)) for _ in range(POOL)]

    recorder = Recorder() if trace else None
    setups, reference, service = [], None, None
    for _ in range(1 if trace else SETUP_REPEATS):
        if service is not None:
            service.stop()
        service, ref, setup_s, convert_s = _setup(
            seed, calib, pool, recorder, want_reference=reference is None)
        reference = reference or ref
        setups.append(setup_s)

    try:
        runs: List[Phases] = []
        collect_s = 0.0
        if trace:
            recorder.active = False
            runs.append(Phases(service, pool, seed, seconds / 2))
            recorder.active = True
            runs.append(Phases(service, pool, seed + 1, seconds / 2))
            started = time.perf_counter()
            service.metrics.collect()
            collect_s = time.perf_counter() - started
        else:
            runs.append(Phases(service, pool, seed, seconds))
    finally:
        service.stop()

    res.attempted = sum(p.attempted for p in runs)
    res.failed = sum(p.failed for p in runs)
    for phases in runs:
        _check(res, phases, reference)
        lag_p99 = percentile(phases.open.lag_ms, 99)
        if lag_p99 > LAG_P99_BOUND_MS:
            raise InvalidRun(
                f"load generator lag p99 {lag_p99:.2f} ms exceeds "
                f"{LAG_P99_BOUND_MS} ms; the open-loop numbers are invalid")

    first = runs[0]
    latency = first.open.latency_ms
    p50, p99 = percentile(latency, 50), percentile(latency, 99)
    res.end_to_end.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": first.saturated_rps,
        "latency_p50_ms": p50,
    })
    res.record.update({
        "serve.p50_ms": {"value": p50, "unit": "ms", "n": int(latency.size)},
        "serve.p99_ms": {"value": p99, "unit": "ms", "n": int(latency.size)},
        "serve.saturated_rps": {"value": first.saturated_rps,
                                "unit": "req/s",
                                "n": first.window["completed"]},
        "sub_windows": {"p50_ms": chunk_percentiles(latency, 50),
                        "p99_ms": chunk_percentiles(latency, 99),
                        "rps": chunk_rates(first.window["start"],
                                           first.window["done_at"], 1)},
        "rate_rps": RATE, "window": WINDOW,
        "max_batch_size": service.max_batch_size,
        "max_wait_ms": service.max_wait_ms,
        "loadgen.lag_p99_ms": percentile(first.open.lag_ms, 99),
        "backlog_max": first.open.backlog_max,
        "setup_s_runs": setups, "convert_s": convert_s,
        "engine_delta": first.engine, "batches": first.batches,
        "image": IMAGE, "model": "resnet18 w=1/16 int8, BN folded",
    })
    if trace:
        untraced, traced = runs
        overhead = (untraced.saturated_rps / traced.saturated_rps - 1.0) * 100
        _trace_layers(res, recorder, traced, convert_s, collect_s, overhead)
        res.recorder = recorder
    return res
