"""Planned conv backward against eager over a grid of conv geometries.

ResNet-18 only reaches the planned conv kernels with ``groups=1``; this
grid adds grouped and depthwise convs, strides, 1×1 kernels and convs
without bias.  The input gradient is read through a zero-valued
Parameter offset, since a plan stores gradients only on Parameters.
"""

import itertools

import numpy as np
import pytest

from repro.engine import compile_plan, run_backward
from repro.engine.tracer import Tracer, tracing
from repro.nn import functional as F
from repro.nn._ops import conv as conv_ops
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor

C_IN, C_OUT, SIZE = 4, 8, 7


def arr(shape, seed):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def conv_loss(x, w, b, stride, padding, groups):
    return F.sum(F.conv2d(x, w, b, stride=stride, padding=padding,
                          groups=groups) ** 2)


def make_params(groups, kernel, bias):
    w = Parameter(arr((C_OUT, C_IN // groups, kernel, kernel), 1))
    b = Parameter(arr((C_OUT,), 2)) if bias else None
    offset = Parameter(np.zeros((2, C_IN, SIZE, SIZE), dtype=np.float32))
    return w, b, offset


def trace(fn, x):
    x0 = Tensor(x)
    tracer = Tracer(inputs={"x": x0})
    with tracing(tracer):
        root, taps = fn(x0)
    return tracer.finalize(root, taps)


def grads_of(*params):
    return [p.grad for p in params if p is not None]


GRID = list(itertools.product((1, 2, C_IN), (1, 2), (1, 3), (True, False)))


@pytest.mark.parametrize("groups, stride, kernel, bias", GRID)
def test_planned_conv_grads_equal_eager(groups, stride, kernel, bias):
    padding = kernel // 2
    plan_params = make_params(groups, kernel, bias)
    eager_params = make_params(groups, kernel, bias)

    def fn(x):
        w, b, offset = plan_params
        return conv_loss(F.add(x, offset), w, b, stride, padding, groups), {}

    plan = compile_plan(trace(fn, arr((2, C_IN, SIZE, SIZE), 0)),
                        training=True)
    assert "Conv2d" in [r.op.__name__ for r in plan.records]

    for seed in (7, 8):
        fresh = arr((2, C_IN, SIZE, SIZE), seed)
        for p in plan_params + eager_params:
            if p is not None:
                p.grad = None
        result = plan.replay({"x": fresh})
        w, b, offset = eager_params
        loss = conv_loss(F.add(Tensor(fresh), offset), w, b, stride,
                         padding, groups)
        run_backward(loss)
        assert result.root.tobytes() == loss.data.tobytes()
        for got, want in zip(grads_of(*plan_params), grads_of(*eager_params)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bias", [True, False])
def test_conv_input_grad_is_skipped_when_nothing_reads_it(monkeypatch, bias):
    # The stem conv's input is the image: neither eager nor replay may
    # spend a col2im on a gradient nobody reads, and skipping it must not
    # move the weight and bias gradients by a single bit.
    calls = []
    real_col2im = conv_ops._col2im

    def counting_col2im(*args, **kwargs):
        calls.append(1)
        return real_col2im(*args, **kwargs)

    monkeypatch.setattr(conv_ops, "_col2im", counting_col2im)
    x_shape = (2, C_IN, SIZE, SIZE)

    def params():
        w = Parameter(arr((C_OUT, C_IN, 3, 3), 1))
        b = Parameter(arr((C_OUT,), 2)) if bias else None
        return w, b

    def loss(x, w, b):
        return conv_loss(x, w, b, 2, 1, 1)

    w_ref, b_ref = params()
    x_ref = Tensor(arr(x_shape, 7), requires_grad=True)
    run_backward(loss(x_ref, w_ref, b_ref))
    assert x_ref.grad is not None and calls  # the counter sees col2im
    del calls[:]

    w_eager, b_eager = params()
    run_backward(loss(Tensor(arr(x_shape, 7)), w_eager, b_eager))

    w_plan, b_plan = params()
    graph = trace(lambda x: (loss(x, w_plan, b_plan), {}), arr(x_shape, 0))
    plan = compile_plan(graph, training=True)
    plan.replay({"x": arr(x_shape, 7)})

    assert calls == []
    for got in (grads_of(w_eager, b_eager), grads_of(w_plan, b_plan)):
        for g, want in zip(got, grads_of(w_ref, b_ref), strict=True):
            assert g.tobytes() == want.tobytes()
