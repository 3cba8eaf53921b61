"""A plan holds no array of its step between replays.

Compilation drops the traced step's tensors, and each replay clears its
slots and releases every op's saved state (a training plan's once its
backward has run).  So what ``invalidate()`` frees is the plan's
schedule alone, and its size does not depend on the batch.  Measured
with tracemalloc on a GroupNorm ResNet-18 (width 1/16, 16×16) after a
trace and two replays: about 141 KiB at batch 8 and at batch 32 for a
training plan.  A plan that kept the traced step's tensors and its last
replay's slots freed 1,997 KiB at batch 8 and 7,440 KiB at batch 32.
An inference plan frees about 121 KiB at both sizes; one that kept its
ops' forward state (``Relu`` and ``AddRelu`` masks) freed 198 KiB at
batch 8 and 397 KiB at batch 32.
"""

import gc
import tracemalloc
import weakref

import numpy as np

from repro.engine import ExecutionEngine, run_backward
from repro.nn import functional as F
from repro.nn.autograd import no_grad
from repro.nn.tensor import Tensor

from .test_retrace_soak import encoder

SLACK = 64 * 1024  # bytes; far under one batch-8 step's activations


def training_step(batch):
    """An engine, its model's parameters and an ``execute`` closure."""
    model = encoder()
    params = list(model.parameters())
    engine = ExecutionEngine(training=True)
    x = Tensor(np.random.default_rng(1).normal(size=(batch, 3, 16, 16))
               .astype(np.float32))

    def eager():
        loss = F.mean(model(x) ** 2)
        run_backward(loss)
        return loss, {}

    def step():
        for p in params:
            p.grad = None
        return engine.execute("step", {"x": x}, None, eager)

    return engine, step


def inference_step(batch):
    """An inference engine and an ``execute`` closure over its model."""
    model = encoder()
    model.eval()
    engine = ExecutionEngine(training=False)
    x = Tensor(np.random.default_rng(1).normal(size=(batch, 3, 16, 16))
               .astype(np.float32))

    def eager():
        with no_grad():
            return model(x), {}

    def step():
        return engine.execute("step", {"x": x}, None, eager)

    return engine, step


def bytes_freed_by_invalidate(batch, make_step=training_step):
    """Bytes ``invalidate()`` frees after a trace and two replays."""
    engine, step = make_step(batch)
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(3):
            step()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        engine.invalidate()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert engine.stats()["plan_hits"] == 2
    return freed


def test_plan_holds_nothing_that_grows_with_the_batch():
    small, large = bytes_freed_by_invalidate(8), bytes_freed_by_invalidate(32)
    assert large - small < SLACK, (small, large)


def test_inference_plan_holds_nothing_that_grows_with_the_batch():
    small = bytes_freed_by_invalidate(8, inference_step)
    large = bytes_freed_by_invalidate(32, inference_step)
    assert large - small < SLACK, (small, large)


def test_traced_loss_is_freed_with_the_callers_result():
    engine, step = training_step(8)
    result = step()  # the trace
    assert not result.replayed and engine.plan_for("step") is not None
    loss = weakref.ref(result.root)
    del result
    gc.collect()
    assert loss() is None


def test_replayed_ops_keep_only_their_gradient_flags():
    engine, step = training_step(8)
    step()
    assert step().replayed
    for record in engine.plan_for("step").records:
        assert record.out is None
        assert vars(record.ctx) == {
            "parents": (), "needs_input_grad": record.ctx.needs_input_grad,
        }
