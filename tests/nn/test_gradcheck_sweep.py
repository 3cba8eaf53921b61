"""Numerical-gradient sweep over EVERY autograd Function in repro.nn._ops.

Functions are discovered by reflection, so adding a new op to any module
under ``src/repro/nn/_ops/`` without registering a spec here fails
``test_every_function_has_a_spec`` — the sweep cannot silently fall out
of date.

Inputs are constructed away from non-differentiable points (relu kinks,
max ties, clip boundaries) so central differences are valid; distinct
values for max-like ops come from shuffled ranges, not rejection
sampling.  The STE quantizers are checked analytically at the end: their
forward is piecewise constant by design, so the straight-through
backward must be asserted directly rather than numerically.
"""

import inspect

import numpy as np
import pytest

from repro.nn._ops import (
    conv as ops_conv,
    elementwise as ops_elementwise,
    matmul as ops_matmul,
    norm as ops_norm,
    pool as ops_pool,
    reduce as ops_reduce,
    shape as ops_shape,
)
from repro.nn.autograd import Function
from repro.nn.tensor import Tensor

from ..helpers import gradcheck, tensor64

OP_MODULES = (
    ops_conv,
    ops_elementwise,
    ops_matmul,
    ops_norm,
    ops_pool,
    ops_reduce,
    ops_shape,
)


def discover_functions():
    """Every Function subclass defined in an _ops module, keyed by name."""
    found = {}
    for module in OP_MODULES:
        for name, obj in sorted(vars(module).items()):
            if (
                inspect.isclass(obj)
                and issubclass(obj, Function)
                and obj is not Function
                and obj.__module__ == module.__name__
            ):
                found[name] = obj
    return found


FUNCTIONS = discover_functions()


def _rng(seed=0):
    return np.random.default_rng(seed)


def away_from_zero(shape, margin=0.25, seed=0):
    """Values in ±[margin, 1+margin] — safe for relu/abs/sign kinks."""
    r = _rng(seed)
    return tensor64(
        r.choice([-1.0, 1.0], size=shape) * (margin + r.uniform(size=shape))
    )


def positive(shape, low=0.5, high=2.0, seed=0):
    return tensor64(_rng(seed).uniform(low, high, size=shape))


def distinct(shape, seed=0):
    """All-distinct values so max/min/argmax ties cannot occur."""
    values = np.arange(np.prod(shape), dtype=np.float64)
    _rng(seed).shuffle(values)
    return tensor64(0.1 * values.reshape(shape) - 0.05 * values.size * 0.1)


def normal(shape, seed=0):
    return tensor64(_rng(seed).normal(size=shape))


# Every mode of the normalization op, as (args, kwargs) for
# ``Normalize.apply``: which values share statistics (per-sample groups
# or per-channel batch) and where the statistics come from.
NORMALIZE_MODES = {
    "group_affine": lambda: (
        (normal((2, 4, 3, 3), 70), normal((4,), 71), normal((4,), 72)),
        {"groups": 2},
    ),
    "group_plain": lambda: (
        (normal((2, 4, 3, 3), 73), None, None), {"groups": 2}
    ),
    "layer_2d": lambda: (
        (normal((3, 5), 74), normal((5,), 75), normal((5,), 76)),
        {"groups": 1, "channel_axis": -1},
    ),
    "layer_3d": lambda: (
        (normal((2, 3, 5), 77), normal((5,), 78), normal((5,), 79)),
        {"groups": 1, "channel_axis": -1},
    ),
    "batch_1d": lambda: (
        (normal((6, 3), 80), normal((3,), 81), normal((3,), 82)), {}
    ),
    "batch_2d": lambda: (
        (normal((3, 2, 2, 3), 83), normal((2,), 84), normal((2,), 85)), {}
    ),
    "batch_running": lambda: (
        (normal((3, 2, 2, 3), 86), normal((2,), 87), normal((2,), 88)),
        {"mean": _rng(89).normal(size=2),
         "var": _rng(90).uniform(0.5, 2.0, size=2)},
    ),
}

# Each spec: builder returning (args, kwargs) passed to cls.apply().
# Tensor arguments are gradient-checked; everything else rides along.
SPECS = {
    # elementwise -- broadcasting shapes exercise unbroadcast()
    "Add": lambda: ((normal((2, 3), 1), normal((1, 3), 2)), {}),
    "Sub": lambda: ((normal((2, 3), 3), normal((3,), 4)), {}),
    "RSub": lambda: ((normal((2, 3), 5), 1.5), {}),
    "Mul": lambda: ((normal((2, 3), 6), normal((2, 1), 7)), {}),
    "Div": lambda: ((normal((2, 3), 8), away_from_zero((2, 3), 0.5, 9)), {}),
    "RDiv": lambda: ((away_from_zero((2, 3), 0.5, 10), 2.0), {}),
    "Neg": lambda: ((normal((2, 3), 11),), {}),
    "Pow": lambda: ((positive((2, 3), 0.5, 2.0, 12), 2.5), {}),
    "Exp": lambda: ((normal((2, 3), 13),), {}),
    "Log": lambda: ((positive((2, 3), 0.5, 2.0, 14),), {}),
    "Sqrt": lambda: ((positive((2, 3), 0.5, 2.0, 15),), {}),
    "Abs": lambda: ((away_from_zero((2, 3), 0.25, 16),), {}),
    "Clip": lambda: ((away_from_zero((3, 4), 0.25, 17), -1.1, 1.1), {}),
    "Maximum": lambda: (
        # Alternate which operand wins, with |a - b| >= 1 everywhere: no ties.
        (tensor64(np.array([[0.0, 3.0, -1.0], [4.0, -2.0, 1.0]])),
         tensor64(np.array([[2.0, 1.0, 1.5], [-1.0, 2.0, -3.0]]))),
        {},
    ),
    "Identity": lambda: ((normal((2, 3), 19),), {}),
    "Relu": lambda: ((away_from_zero((2, 3), 0.25, 20),), {}),
    "Relu6": lambda: ((away_from_zero((2, 3), 0.25, 21),), {}),
    "LeakyRelu": lambda: (
        (away_from_zero((2, 3), 0.25, 22),), {"negative_slope": 0.1}
    ),
    "Sigmoid": lambda: ((normal((2, 3), 23),), {}),
    "Tanh": lambda: ((normal((2, 3), 24),), {}),
    # the residual join and activation (BasicBlock)
    "AddRelu": lambda: (
        # b = target - a, so a + b lands in +-[0.5, 1.5]: no kink ties.
        (normal((2, 3), 63),
         tensor64(away_from_zero((2, 3), 0.5, 64).data
                  - normal((2, 3), 63).data)),
        {},
    ),
    # matmul
    "MatMul": lambda: ((normal((2, 3), 25), normal((3, 4), 26)), {}),
    "Linear": lambda: (
        (normal((4, 3), 27), normal((5, 3), 28), normal((5,), 29)), {}
    ),
    # conv
    "Conv2d": lambda: (
        (normal((2, 3, 5, 5), 30), normal((4, 3, 3, 3), 31), normal((4,), 32)),
        {"stride": (2, 2), "padding": (1, 1)},
    ),
    # norm -- one op for every normalization layer; this entry is
    # GroupNorm's, and test_normalize_mode_gradients checks every mode
    "Normalize": lambda: NORMALIZE_MODES["group_affine"](),
    # pool -- distinct values keep the argmax unique under perturbation
    "MaxPool2d": lambda: (
        (distinct((2, 2, 4, 4), 33),),
        {"kernel_size": (2, 2), "stride": (1, 1)},
    ),
    "AvgPool2d": lambda: (
        (normal((2, 2, 4, 4), 34),),
        {"kernel_size": (2, 2), "padding": (1, 1)},
    ),
    # reduce
    "Sum": lambda: ((normal((2, 3, 4), 35),), {"axis": 1}),
    "Mean": lambda: ((normal((2, 3, 4), 36),), {"axis": 2, "keepdims": True}),
    "Max": lambda: ((distinct((2, 3, 4), 37),), {"axis": 1}),
    "Min": lambda: ((distinct((2, 3, 4), 38),), {"axis": None}),
    "LogSumExp": lambda: ((normal((3, 5), 39),), {"axis": -1}),
    # shape
    "Reshape": lambda: ((normal((2, 6), 40), (3, 4)), {}),
    "Transpose": lambda: ((normal((2, 3, 4), 41),), {"axes": (2, 0, 1)}),
    "GetItem": lambda: (
        # Repeated fancy indices: backward must accumulate, not assign.
        (normal((3, 4), 42), (np.array([0, 2, 2]),)),
        {},
    ),
    "Concat": lambda: ((normal((2, 3), 43), normal((2, 2), 44)), {"axis": 1}),
    "Stack": lambda: ((normal((2, 3), 45), normal((2, 3), 46)), {"axis": 1}),
    "Pad": lambda: ((normal((2, 3), 47), ((1, 1), (0, 2))), {}),
    "BroadcastTo": lambda: ((normal((1, 3), 48), (4, 3)), {}),
}

# Loose-tolerance ops: conv/pool accumulate more float error in the
# central-difference denominator than single elementwise ops.
LOOSE = {"Conv2d", "MaxPool2d", "AvgPool2d", "GroupNorm"}


def test_every_function_has_a_spec():
    """Reflection-discovered ops must all be covered by the sweep."""
    missing = sorted(set(FUNCTIONS) - set(SPECS))
    assert not missing, (
        f"autograd Functions without a gradcheck spec: {missing} — "
        "add entries to SPECS in tests/nn/test_gradcheck_sweep.py"
    )


def test_specs_match_real_functions():
    stale = sorted(set(SPECS) - set(FUNCTIONS))
    assert not stale, f"specs for nonexistent Functions: {stale}"


@pytest.mark.parametrize("name", sorted(SPECS))
def test_function_gradients(name):
    if name not in FUNCTIONS:
        pytest.skip(f"{name} not present in this build")
    cls = FUNCTIONS[name]
    args, kwargs = SPECS[name]()
    tensors = [a for a in args if isinstance(a, Tensor)]
    assert tensors, f"spec for {name} provides no Tensor inputs"
    atol = 1e-4 if name in LOOSE else 1e-5
    gradcheck(lambda: cls.apply(*args, **kwargs), tensors, atol=atol)


class TestConv2dVariants:
    """Extra conv coverage beyond the one-spec-per-Function floor."""

    def test_grouped_convolution(self):
        x = normal((1, 4, 5, 5), 50)
        w = normal((4, 2, 3, 3), 51)
        gradcheck(
            lambda: ops_conv.Conv2d.apply(x, w, None, groups=2),
            [x, w],
            atol=1e-4,
        )

    def test_no_bias(self):
        x = normal((2, 2, 4, 4), 52)
        w = normal((3, 2, 3, 3), 53)
        gradcheck(
            lambda: ops_conv.Conv2d.apply(x, w), [x, w], atol=1e-4
        )


@pytest.mark.parametrize("mode", sorted(NORMALIZE_MODES))
def test_normalize_mode_gradients(mode):
    """Every normalization mode, through a fixed random probe.

    The probe makes the checked scalar ``sum((probe * out)**2)``: without
    it, a mode with no affine would check ``sum(xhat**2)``, which is
    nearly constant in ``x``.
    """
    args, kwargs = NORMALIZE_MODES[mode]()
    tensors = [a for a in args if isinstance(a, Tensor)]
    probe = _rng(91).normal(size=args[0].shape)
    gradcheck(
        lambda: ops_norm.Normalize.apply(*args, **kwargs) * probe, tensors
    )


class TestQuantizerSTE:
    """The STE quantizers are piecewise constant forward, so central
    differences are zero almost everywhere by construction.  The contract
    is instead analytic: backward passes the incoming gradient straight
    through (masked to the clip range for the learnable variant)."""

    def test_fake_quant_ste_passes_gradient_through(self):
        from repro.quant.quantizer import _FakeQuantSTE, linear_quantize

        x = tensor64(_rng(60).normal(size=(4, 5)))
        out = _FakeQuantSTE.apply(x, bits=4)
        np.testing.assert_array_equal(out.data, linear_quantize(x.data, 4))
        upstream = _rng(61).normal(size=(4, 5))
        out.backward(upstream)
        np.testing.assert_array_equal(x.grad, upstream)

    def test_fake_quant_per_channel_ste_passes_gradient_through(self):
        from repro.quant.quantizer import (
            _FakeQuantPerChannelSTE,
            linear_quantize_per_channel,
        )

        x = tensor64(_rng(62).normal(size=(3, 4)))
        out = _FakeQuantPerChannelSTE.apply(x, bits=4, axis=0)
        np.testing.assert_array_equal(
            out.data, linear_quantize_per_channel(x.data, 4, 0)
        )
        upstream = _rng(63).normal(size=(3, 4))
        out.backward(upstream)
        np.testing.assert_array_equal(x.grad, upstream)

    def test_learnable_ste_masks_out_of_range(self):
        from repro.quant.quantizer import _LearnableQuantSTE

        step = 0.25
        bits = 4
        qmax = 2.0 ** (bits - 1) - 1.0
        qmin = -(2.0 ** (bits - 1))
        x = tensor64(np.array([[0.1, -0.3, 5.0, -5.0, 1.2]]))
        s = tensor64(np.array([step]))
        out = _LearnableQuantSTE.apply(x, s, bits=bits)
        upstream = _rng(64).normal(size=(1, 5))
        out.backward(upstream)
        in_range = (x.data / step >= qmin) & (x.data / step <= qmax)
        np.testing.assert_array_equal(x.grad, upstream * in_range)

    def test_learnable_ste_step_gradient_is_lsq(self):
        from repro.quant.quantizer import _LearnableQuantSTE

        step, bits = 0.25, 4
        qmax = 2.0 ** (bits - 1) - 1.0
        qmin = -(2.0 ** (bits - 1))
        x = tensor64(np.array([[0.1, -0.3, 5.0, -5.0, 1.2]]))
        s = tensor64(np.array([step]))
        out = _LearnableQuantSTE.apply(x, s, bits=bits)
        upstream = _rng(65).normal(size=(1, 5))
        out.backward(upstream)
        v = x.data / step
        in_range = (v >= qmin) & (v <= qmax)
        clipped = np.clip(v, qmin, qmax)
        terms = np.where(in_range, np.round(clipped) - v, clipped)
        expected = np.sum(upstream * terms)
        np.testing.assert_allclose(float(s.grad[0]), expected, rtol=1e-6)
