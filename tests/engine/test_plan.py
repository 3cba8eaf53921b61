"""Plan compilation: fusion, replay fidelity, rebinding, buffer reuse."""

import numpy as np
import pytest

from repro.engine import compile_plan, run_backward
from repro.engine.plan import PlanError
from repro.engine.tracer import Tracer, tracing
from repro.nn import functional as F
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.quant import fake_quantize


def trace(fn, inputs, symbols=None):
    """Run ``fn(tensors) -> (root, taps)`` once under a tracer."""
    tracer = Tracer(inputs=inputs, symbols=symbols)
    with tracing(tracer):
        root, taps = fn(**inputs)
    return tracer.finalize(root, taps)


def arr(shape, seed):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def op_names(plan):
    return [r.op.__name__ for r in plan.records]


# -- fusion ------------------------------------------------------------------

def test_mul_add_relu_chain_fuses_to_one_kernel():
    a = Parameter(arr((2, 3), 1))
    b = Parameter(arr((2, 3), 2))

    def fn(x):
        return F.relu(F.add(F.mul(x, a), b)), {}

    graph = trace(fn, {"x": Tensor(arr((2, 3), 0))})
    plan = compile_plan(graph, training=False)
    assert op_names(plan) == ["FusedMulAddRelu"]


def test_add_relu_fuses_without_leading_mul():
    b = Parameter(arr((2, 3), 2))

    def fn(x):
        return F.relu(F.add(x, b)), {}

    plan = compile_plan(trace(fn, {"x": Tensor(arr((2, 3), 0))}),
                        training=False)
    assert op_names(plan) == ["FusedAddRelu"]


def test_mul_add_fuses_without_trailing_relu():
    a = Parameter(arr((2, 3), 1))
    b = Parameter(arr((2, 3), 2))

    def fn(x):
        return F.sum(F.add(F.mul(x, a), b)), {}

    plan = compile_plan(trace(fn, {"x": Tensor(arr((2, 3), 0))}),
                        training=False)
    assert op_names(plan) == ["FusedMulAdd", "Sum"]


def test_multi_consumer_intermediate_is_not_fused():
    a = Parameter(arr((2, 3), 1))
    b = Parameter(arr((2, 3), 2))

    def fn(x):
        y = F.mul(x, a)
        z = F.add(y, b)
        return F.add(z, y), {}  # y has two consumers: Mul must survive

    plan = compile_plan(trace(fn, {"x": Tensor(arr((2, 3), 0))}),
                        training=False)
    assert "Mul" in op_names(plan)
    assert "FusedMulAdd" not in op_names(plan)


def test_fuse_false_keeps_primitive_records():
    a = Parameter(arr((2, 3), 1))
    b = Parameter(arr((2, 3), 2))

    def fn(x):
        return F.relu(F.add(F.mul(x, a), b)), {}

    plan = compile_plan(trace(fn, {"x": Tensor(arr((2, 3), 0))}),
                        training=False, fuse=False)
    assert op_names(plan) == ["Mul", "Add", "Relu"]


# -- replay fidelity ---------------------------------------------------------

def eager_outputs(fn, arrays):
    root, taps = fn(**{k: Tensor(v) for k, v in arrays.items()})
    return root.data, {k: t.data for k, t in taps.items()}


@pytest.mark.parametrize("fuse", [True, False])
def test_inference_replay_is_byte_identical_to_eager(fuse):
    a = Parameter(arr((4, 5), 1))
    b = Parameter(arr((4, 5), 2))

    def fn(x):
        y = F.relu(F.add(F.mul(x, a), b))
        return F.mean(y), {"features": y}

    graph = trace(fn, {"x": Tensor(arr((4, 5), 0))})
    plan = compile_plan(graph, training=False, fuse=fuse)

    for seed in (7, 8, 9):
        fresh = {"x": arr((4, 5), seed)}
        result = plan.replay(fresh)
        root, taps = eager_outputs(fn, fresh)
        assert result.root.tobytes() == root.tobytes()
        assert result.outputs["features"].tobytes() == taps["features"].tobytes()


def test_training_replay_accumulates_identical_grads():
    init = arr((3, 4), 1)
    p_plan = Parameter(init.copy())
    p_eager = Parameter(init.copy())

    def fn(x):
        return F.sum(F.relu(F.mul(x, p_plan))), {}

    graph = trace(fn, {"x": Tensor(arr((3, 4), 0))})
    plan = compile_plan(graph, training=True)

    fresh = arr((3, 4), 5)
    p_plan.grad = None
    result = plan.replay({"x": fresh})

    loss = F.sum(F.relu(F.mul(Tensor(fresh), p_eager)))
    run_backward(loss)
    assert result.root.tobytes() == loss.data.tobytes()
    assert p_plan.grad.tobytes() == p_eager.grad.tobytes()


def test_replay_rereads_parameter_values():
    p = Parameter(arr((2, 2), 1))

    def fn(x):
        return F.mul(x, p), {}

    plan = compile_plan(trace(fn, {"x": Tensor(arr((2, 2), 0))}),
                        training=True)
    fresh = arr((2, 2), 3)
    first = plan.replay({"x": fresh}).root.copy()
    p.data = p.data * 2.0  # noqa: RPR002 - optimizer-style rebind on purpose
    second = plan.replay({"x": fresh}).root
    assert np.array_equal(second, first * 2.0)


def test_symbol_rebinding_matches_eager_quantization():
    def fn(x):
        return fake_quantize(x, 4), {}

    x0 = Tensor(arr((6, 6), 0))
    graph = trace(fn, {"x": x0}, symbols={"q": 4})
    plan = compile_plan(graph, training=False)
    assert plan.symbols == ("q",)

    fresh = arr((6, 6), 11)
    for bits in (2, 4, 8):
        replayed = plan.replay({"x": fresh}, {"q": bits})
        eager = fake_quantize(Tensor(fresh), bits)
        assert replayed.root.tobytes() == eager.data.tobytes()


def test_inference_replay_reuses_root_buffer():
    p = Parameter(arr((2, 2), 1))

    def fn(x):
        return F.mul(x, p), {}

    plan = compile_plan(trace(fn, {"x": Tensor(arr((2, 2), 0))}),
                        training=False)
    first = plan.replay({"x": arr((2, 2), 3)}).root
    second = plan.replay({"x": arr((2, 2), 4)}).root
    assert first is second  # arena storage, not a fresh allocation


def test_stale_reports_version_bumps_for_inference_plans():
    p = Parameter(arr((2, 2), 1))

    def fn(x):
        return F.mul(x, p), {}

    plan = compile_plan(trace(fn, {"x": Tensor(arr((2, 2), 0))}),
                        training=False)
    assert not plan.stale()
    p.data = p.data + 1.0  # noqa: RPR002 - version bump on purpose
    assert plan.stale()


def test_compile_rejects_untraced_root():
    graph = trace(lambda x: (F.mul(x, x), {}), {"x": Tensor(arr((2, 2), 0))})
    graph.root = Tensor(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(PlanError):
        compile_plan(graph, training=False)


def _conv_loss(x, w, b):
    return F.sum(F.conv2d(x, w, b, stride=1, padding=1) ** 2)


def _linear_loss(x, w, b):
    return F.sum(F.linear(x, w, b) ** 2)


@pytest.mark.parametrize("loss_fn, x_shape, w_shape", [
    (_conv_loss, (2, 3, 5, 5), (4, 3, 3, 3)),
    (_linear_loss, (6, 4), (5, 4)),
])
def test_training_replays_accumulate_like_eager_without_zero_grad(
        loss_fn, x_shape, w_shape):
    # The planned conv/linear kernels write weight grads into persistent
    # buffers; the replay must not hand those out as Parameter.grad.
    w_plan, w_eager = Parameter(arr(w_shape, 1)), Parameter(arr(w_shape, 1))
    bias = arr((w_shape[0],), 2)
    b_plan, b_eager = Parameter(bias.copy()), Parameter(bias.copy())

    graph = trace(lambda x: (loss_fn(x, w_plan, b_plan), {}),
                  {"x": Tensor(arr(x_shape, 0))})
    plan = compile_plan(graph, training=True)
    w_plan.grad = b_plan.grad = None

    steps = [arr(x_shape, 5), arr(x_shape, 6)]
    plan.replay({"x": steps[0]})
    held = w_plan.grad
    held_bytes = held.tobytes()
    plan.replay({"x": steps[1]})

    for x in steps:
        run_backward(loss_fn(Tensor(x), w_eager, b_eager))
    assert held.tobytes() == held_bytes
    assert w_plan.grad.tobytes() == w_eager.grad.tobytes()
    assert b_plan.grad.tobytes() == b_eager.grad.tobytes()
