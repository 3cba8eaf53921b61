"""Retracing keeps memory flat: a retired plan takes nothing with it.

A long-lived engine retraces whenever a plan goes stale — a serving
model whose weights are republished in place, or a trainer whose
precision context changes.  Each cycle below forces one retrace and one
replay of a GroupNorm ResNet-18 (width 1/16, batch 8, 16×16), then reads
tracemalloc's traced memory.  After the first cycle the traced total
may drift by allocator noise (a few tens of KiB).  A plan cache that
kept a retired plan's output buffers would grow by about 0.9 MiB
(inference) or 1.7 MiB (training) per cycle.
"""

import gc
import tracemalloc

import numpy as np

from repro.engine import ExecutionEngine, run_backward
from repro.models import resnet18
from repro.nn import functional as F
from repro.nn.autograd import no_grad
from repro.nn.tensor import Tensor

SHAPE = (8, 3, 16, 16)
SLACK = 256 * 1024  # bytes; well under one retired plan's arrays


def encoder():
    return resnet18(stem="cifar", width_multiplier=0.0625, norm="group",
                    rng=np.random.default_rng(0))


def traced_bytes_per_cycle(cycle, cycles):
    """Traced memory after each of ``cycles`` calls to ``cycle()``."""
    gc.collect()
    tracemalloc.start()
    try:
        readings = []
        for _ in range(cycles):
            cycle()
            gc.collect()
            readings.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    return readings


def test_stale_inference_retraces_hold_memory_flat():
    model = encoder()
    model.eval()
    engine = ExecutionEngine(training=False)
    x = Tensor(np.random.default_rng(1).normal(size=SHAPE))
    weight = next(iter(model.parameters()))

    def eager():
        with no_grad():
            return model(x), {}

    def cycle():
        # An in-place republish: same weights, new Parameter.version.
        weight.data = weight.data  # noqa: RPR002 - version bump on purpose
        engine.execute("forward", {"x": x}, None, eager)  # retrace
        engine.execute("forward", {"x": x}, None, eager)  # replay

    readings = traced_bytes_per_cycle(cycle, 20)
    stats = engine.stats()
    assert stats["retraces"] == 19 and stats["plan_hits"] == 20
    assert max(readings) - readings[0] < SLACK, readings


def test_invalidated_training_retraces_hold_memory_flat():
    model = encoder()
    params = list(model.parameters())
    engine = ExecutionEngine(training=True)
    x = Tensor(np.random.default_rng(1).normal(size=SHAPE).astype(np.float32))

    def eager():
        loss = F.mean(model(x) ** 2)
        run_backward(loss)
        return loss, {}

    def cycle():
        engine.invalidate()
        for _ in range(2):  # retrace, then replay
            for p in params:
                p.grad = None
            engine.execute("step", {"x": x}, None, eager)

    readings = traced_bytes_per_cycle(cycle, 10)
    stats = engine.stats()
    assert stats["retraces"] == 9 and stats["plan_hits"] == 10
    assert max(readings) - readings[0] < SLACK, readings
