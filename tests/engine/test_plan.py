"""Plan compilation: replay fidelity, rebinding, output escape."""

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


# -- replay fidelity ---------------------------------------------------------

def eager_outputs(fn, arrays):
    root, taps = fn(**{k: Tensor(v) for k, v in arrays.items()})
    return root.data, {k: t.data for k, t in taps.items()}


@pytest.mark.parametrize("joined", [True, False])
def test_inference_replay_is_byte_identical_to_eager(joined):
    # joined: the sum and relu run as one AddRelu op, else as Add then Relu.
    a = Parameter(arr((4, 5), 1))
    b = Parameter(arr((4, 5), 2))

    def fn(x):
        ax = F.mul(x, a)
        y = F.add_relu(ax, b) if joined else F.relu(F.add(ax, b))
        return F.mean(y), {"features": y}

    graph = trace(fn, {"x": Tensor(arr((4, 5), 0))})
    plan = compile_plan(graph, training=False)

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


def _escaping_bytes(result):
    return [result.root.tobytes()] + [
        result.outputs[name].tobytes() for name in sorted(result.outputs)
    ]


@pytest.mark.parametrize("training", [False, True],
                         ids=["inference", "training"])
def test_replay_outputs_are_unchanged_by_the_next_replay(training):
    # Root and taps escape the replay (to futures, caches, loss
    # telemetry): replay N+1 on different inputs must not write into
    # anything replay N handed out.
    w = Parameter(arr((4, 3, 3, 3), 1))
    lin = Parameter(arr((2, 4), 2))

    def fn(x):
        feats = F.relu(F.conv2d(x, w, None, stride=1, padding=1))
        logits = F.linear(F.mean(feats, axis=(2, 3)), lin)
        return F.sum(F.mul(logits, logits)), {"feats": feats,
                                                "logits": logits}

    shape = (2, 3, 5, 5)
    plan = compile_plan(trace(fn, {"x": Tensor(arr(shape, 0))}),
                        training=training)
    first = plan.replay({"x": arr(shape, 3)})
    held = _escaping_bytes(first)
    second = plan.replay({"x": arr(shape, 4)})

    assert _escaping_bytes(first) == held
    assert all(a != b for a, b in zip(_escaping_bytes(second), held))


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
    # A Parameter.grad handed out by one replay must survive the next,
    # and two replays must accumulate exactly like two eager passes.
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
