"""``AddRelu`` against the two ops it replaced.

``BasicBlock`` joins its residual branch with one op,
``F.add_relu(out, shortcut)`` (``repro.nn._ops.elementwise.AddRelu``),
which eager and plan replay both run.  It used to run ``Add`` then
``Relu``; that composite is kept in ``tests/helpers.py`` as the
reference, and the op matches it byte for byte: the output and both
input gradients, for equal and broadcast shapes, in float32 and float64,
with about a quarter of the sums exactly zero (the mask's edge, where
neither side passes a gradient).
"""

import numpy as np
import pytest

from repro.engine import run_backward
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from ..helpers import add_relu_reference

SHAPES = {
    "equal": ((4, 3, 5, 5), (4, 3, 5, 5)),
    "b-per-channel": ((4, 3, 5, 5), (3, 1, 1)),
    "a-broadcast": ((1, 3, 1, 5), (4, 3, 6, 5)),
    "b-lower-rank": ((2, 6), (6,)),
}
DTYPES = [np.float32, np.float64]


def operands(shapes, dtype, seed):
    """``a``, ``b`` and an upstream gradient.

    The operand with the output's shape cancels the other at about a
    quarter of the positions, so those sums are exactly zero.
    """
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=shape).astype(dtype) for shape in shapes)
    out_shape = np.broadcast_shapes(*shapes)
    zero = rng.random(out_shape) < 0.25
    if a.shape == out_shape:
        a[zero] = -np.broadcast_to(b, out_shape)[zero]
    else:
        b[zero] = -np.broadcast_to(a, out_shape)[zero]
    assert np.count_nonzero(a + b == 0) > 0
    return a, b, rng.normal(size=out_shape).astype(dtype)


def run(fn, a, b, grad, b_tensor=True):
    ta = Tensor(a, requires_grad=True, dtype=a.dtype)
    tb = Tensor(b, requires_grad=True, dtype=b.dtype) if b_tensor else b
    out = fn(ta, tb)
    run_backward(out, grad)
    return out, ta.grad, tb.grad if b_tensor else None


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("shapes", list(SHAPES.values()), ids=list(SHAPES))
def test_add_relu_matches_add_then_relu_bytewise(shapes, dtype):
    a, b, grad = operands(shapes, dtype, seed=0)
    out, ga, gb = run(F.add_relu, a, b, grad)
    ref, ref_ga, ref_gb = run(add_relu_reference, a, b, grad)

    assert type(out._ctx).__name__ == "AddRelu"
    assert_same_bytes(out.data, ref.data)
    assert_same_bytes(ga, ref_ga)
    assert_same_bytes(gb, ref_gb)


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_plain_array_operand_leaves_one_parent(dtype):
    # ``b`` as a raw array is not a graph input: the op has one parent
    # and returns one gradient.
    a, b, grad = operands(SHAPES["b-per-channel"], dtype, seed=7)
    out, ga, _ = run(F.add_relu, a, b, grad, b_tensor=False)
    ref, ref_ga, _ = run(add_relu_reference, a, b, grad, b_tensor=False)

    assert len(out._ctx.parents) == 1
    assert_same_bytes(out.data, ref.data)
    assert_same_bytes(ga, ref_ga)
