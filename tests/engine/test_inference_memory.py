"""An inference plan keeps no conv im2col buffers between replays.

``Conv2d`` saves its im2col buffer only when a backward can run.  An
inference plan traces under ``no_grad``, so its conv records hold none,
yet the replay still matches an eager ``no_grad`` forward byte for byte.

Memory held by the plan after one trace and one replay of a GroupNorm
ResNet-18 (width 1/16, batch 8, 16×16), measured with tracemalloc: the
trace-time and replayed activations take about 3.8 MiB, and the 20
im2col buffers would add another 2.2 MiB (6.0 MiB in all).  The bound
sits between the two.
"""

import gc
import tracemalloc

import numpy as np

from repro.engine import ExecutionEngine
from repro.models import resnet18
from repro.nn._ops.conv import Conv2d
from repro.nn.autograd import no_grad
from repro.nn.tensor import Tensor

SHAPE = (8, 3, 16, 16)
HELD_BOUND = 5 * 2 ** 20  # bytes


def test_inference_plan_replays_without_im2col_buffers():
    model = resnet18(stem="cifar", width_multiplier=0.0625, norm="group",
                     rng=np.random.default_rng(0))
    model.eval()
    engine = ExecutionEngine(training=False)
    x = Tensor(np.random.default_rng(1).normal(size=SHAPE).astype(np.float32))

    def eager():
        with no_grad():
            return model(x), {}

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine.execute("forward", {"x": x}, None, eager)  # trace
        result = engine.execute("forward", {"x": x}, None, eager)  # replay
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()

    assert result.replayed
    with no_grad():
        want = model(x).data
    assert result.root.tobytes() == want.tobytes()

    convs = [r for r in engine.plan_for("forward").records if r.op is Conv2d]
    assert len(convs) == 20
    assert all(getattr(r.ctx, "cols", None) is None for r in convs)
    assert held < HELD_BOUND, held
