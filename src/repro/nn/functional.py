"""Public functional API over the differentiable operations.

All functions accept :class:`~repro.nn.tensor.Tensor` inputs (scalars and
arrays are accepted where noted) and return Tensors wired into the autograd
graph.  Importing this module also installs the arithmetic operators on the
Tensor class.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ._ops import conv as _conv
from ._ops import elementwise as _ew
from ._ops import matmul as _mm
from ._ops import pool as _pool
from ._ops import reduce as _red
from ._ops import shape as _shape
from .tensor import Tensor, as_tensor

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sqrt", "abs",
    "clip", "maximum", "identity", "relu", "relu6", "leaky_relu", "sigmoid",
    "tanh", "matmul", "linear", "sum", "mean", "max", "min", "logsumexp",
    "reshape", "flatten", "transpose", "getitem", "concat", "stack", "pad",
    "broadcast_to", "softmax", "log_softmax", "conv2d", "max_pool2d",
    "avg_pool2d", "global_avg_pool2d", "normalize", "cosine_similarity",
    "dropout", "squeeze", "unsqueeze", "add_relu",
]

_IntPair = Union[int, Tuple[int, int]]


def _pair(value: _IntPair) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return tuple(value)  # type: ignore[return-value]


# -- arithmetic -----------------------------------------------------------------

def add(a, b):
    return _ew.Add.apply(as_tensor(a), b)


def sub(a, b):
    return _ew.Sub.apply(as_tensor(a), b)


def mul(a, b):
    return _ew.Mul.apply(as_tensor(a), b)


def div(a, b):
    return _ew.Div.apply(as_tensor(a), b)


def neg(a):
    return _ew.Neg.apply(as_tensor(a))


def pow(a, exponent: float):  # noqa: A001 - mirrors framework naming
    return _ew.Pow.apply(as_tensor(a), exponent=exponent)


def exp(a):
    return _ew.Exp.apply(as_tensor(a))


def log(a):
    return _ew.Log.apply(as_tensor(a))


def sqrt(a):
    return _ew.Sqrt.apply(as_tensor(a))


def abs(a):  # noqa: A001 - mirrors framework naming
    return _ew.Abs.apply(as_tensor(a))


def clip(a, low: float, high: float):
    return _ew.Clip.apply(as_tensor(a), low=low, high=high)


def maximum(a, b):
    return _ew.Maximum.apply(as_tensor(a), b)


def identity(a):
    return _ew.Identity.apply(as_tensor(a))


# -- activations ------------------------------------------------------------------

def relu(a):
    return _ew.Relu.apply(as_tensor(a))


def add_relu(a, b):
    """``relu(a + b)`` as one op, byte-equal to ``relu(add(a, b))``."""
    return _ew.AddRelu.apply(as_tensor(a), b)


def relu6(a):
    return _ew.Relu6.apply(as_tensor(a))


def leaky_relu(a, negative_slope: float = 0.01):
    return _ew.LeakyRelu.apply(as_tensor(a), negative_slope=negative_slope)


def sigmoid(a):
    return _ew.Sigmoid.apply(as_tensor(a))


def tanh(a):
    return _ew.Tanh.apply(as_tensor(a))


# -- linear algebra -----------------------------------------------------------------

def matmul(a, b):
    return _mm.MatMul.apply(as_tensor(a), as_tensor(b))


def linear(x, weight, bias=None):
    """Affine map ``x @ weight.T + bias`` as a single fused graph node."""
    if bias is None:
        return _mm.Linear.apply(as_tensor(x), weight)
    return _mm.Linear.apply(as_tensor(x), weight, bias)


# -- reductions ----------------------------------------------------------------------

def sum(a, axis=None, keepdims: bool = False):  # noqa: A001
    return _red.Sum.apply(as_tensor(a), axis=axis, keepdims=keepdims)


def mean(a, axis=None, keepdims: bool = False):
    return _red.Mean.apply(as_tensor(a), axis=axis, keepdims=keepdims)


def max(a, axis=None, keepdims: bool = False):  # noqa: A001
    return _red.Max.apply(as_tensor(a), axis=axis, keepdims=keepdims)


def min(a, axis=None, keepdims: bool = False):  # noqa: A001
    return _red.Min.apply(as_tensor(a), axis=axis, keepdims=keepdims)


def logsumexp(a, axis=-1, keepdims: bool = False):
    return _red.LogSumExp.apply(as_tensor(a), axis=axis, keepdims=keepdims)


# -- shape -------------------------------------------------------------------------------

def reshape(a, shape: Sequence[int]):
    return _shape.Reshape.apply(as_tensor(a), shape=tuple(shape))


def flatten(a, start_dim: int = 1):
    t = as_tensor(a)
    lead = t.shape[:start_dim]
    return reshape(t, lead + (-1,))


def transpose(a, axes: Optional[Sequence[int]] = None):
    return _shape.Transpose.apply(as_tensor(a), axes=axes)


def getitem(a, index):
    return _shape.GetItem.apply(as_tensor(a), index=index)


def concat(tensors: Sequence[Tensor], axis: int = 0):
    return _shape.Concat.apply(*[as_tensor(t) for t in tensors], axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0):
    return _shape.Stack.apply(*[as_tensor(t) for t in tensors], axis=axis)


def pad(a, pad_width):
    return _shape.Pad.apply(as_tensor(a), pad_width=tuple(tuple(p) for p in pad_width))


def broadcast_to(a, shape: Sequence[int]):
    return _shape.BroadcastTo.apply(as_tensor(a), shape=tuple(shape))


def squeeze(a, axis: int):
    t = as_tensor(a)
    shape = list(t.shape)
    if shape[axis] != 1:
        raise ValueError(f"cannot squeeze axis {axis} of shape {t.shape}")
    del shape[axis]
    return reshape(t, shape)


def unsqueeze(a, axis: int):
    t = as_tensor(a)
    shape = list(t.shape)
    shape.insert(axis if axis >= 0 else axis + t.ndim + 1, 1)
    return reshape(t, shape)


# -- softmax family ---------------------------------------------------------------------

def log_softmax(a, axis: int = -1):
    t = as_tensor(a)
    return sub(t, logsumexp(t, axis=axis, keepdims=True))


def softmax(a, axis: int = -1):
    return exp(log_softmax(a, axis=axis))


# -- convolution / pooling -----------------------------------------------------------------

def conv2d(
    x,
    weight,
    bias=None,
    stride: _IntPair = 1,
    padding: _IntPair = 0,
    groups: int = 1,
):
    """Grouped 2-D convolution over NCHW input."""
    args = [as_tensor(x), weight] + ([] if bias is None else [bias])
    return _conv.Conv2d.apply(
        *args, stride=_pair(stride), padding=_pair(padding), groups=groups
    )


def max_pool2d(x, kernel_size: _IntPair, stride: Optional[_IntPair] = None,
               padding: _IntPair = 0):
    return _pool.MaxPool2d.apply(
        as_tensor(x),
        kernel_size=_pair(kernel_size),
        stride=_pair(stride) if stride is not None else None,
        padding=_pair(padding),
    )


def avg_pool2d(x, kernel_size: _IntPair, stride: Optional[_IntPair] = None,
               padding: _IntPair = 0):
    return _pool.AvgPool2d.apply(
        as_tensor(x),
        kernel_size=_pair(kernel_size),
        stride=_pair(stride) if stride is not None else None,
        padding=_pair(padding),
    )


def global_avg_pool2d(x):
    """Average over the spatial dimensions of NCHW input -> (N, C)."""
    return mean(as_tensor(x), axis=(2, 3))


# -- misc -----------------------------------------------------------------------------------

def normalize(a, axis: int = -1, eps: float = 1e-12):
    """L2-normalise along ``axis`` (as used by contrastive losses).

    ``eps`` sits inside the square root so the gradient stays finite even
    for all-zero rows (sqrt'(0) is infinite otherwise).
    """
    t = as_tensor(a)
    norm = sqrt(add(sum(mul(t, t), axis=axis, keepdims=True), eps))
    return div(t, norm)


def cosine_similarity(a, b, axis: int = -1):
    return sum(mul(normalize(a, axis=axis), normalize(b, axis=axis)), axis=axis)


def dropout(a, p: float, training: bool, rng: Optional[np.random.Generator] = None):
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None:
        # An ad-hoc generator here could never be captured by
        # checkpoint get_rng_state(), silently breaking bit-exact
        # resume — so demand a managed one instead of guessing.
        raise ValueError(
            "dropout requires an explicit np.random.Generator when "
            "active; pass the trainer's managed rng so resume stays "
            "bit-exact"
        )
    t = as_tensor(a)
    mask = (rng.random(t.shape) >= p).astype(t.dtype) / (1.0 - p)
    return mul(t, Tensor(mask))


# -- operator installation ---------------------------------------------------------------------

def _swap_scalar(op):
    def method(self, other):
        return op(self, other)

    return method


def _install_tensor_ops() -> None:
    Tensor.__add__ = lambda self, other: add(self, _unwrap(other))
    Tensor.__radd__ = lambda self, other: add(self, _unwrap(other))
    Tensor.__sub__ = lambda self, other: sub(self, _unwrap(other))
    Tensor.__rsub__ = lambda self, other: _ew.RSub.apply(self, scalar=_raw(other))
    Tensor.__mul__ = lambda self, other: mul(self, _unwrap(other))
    Tensor.__rmul__ = lambda self, other: mul(self, _unwrap(other))
    Tensor.__truediv__ = lambda self, other: div(self, _unwrap(other))
    Tensor.__rtruediv__ = lambda self, other: _ew.RDiv.apply(self, scalar=_raw(other))
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, e: pow(self, e)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, index: getitem(self, index)
    Tensor.sum = lambda self, axis=None, keepdims=False: sum(self, axis, keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)
    Tensor.max = lambda self, axis=None, keepdims=False: max(self, axis, keepdims)
    Tensor.min = lambda self, axis=None, keepdims=False: min(self, axis, keepdims)
    Tensor.reshape = lambda self, *shape: reshape(
        self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape
    )
    Tensor.flatten = lambda self, start_dim=1: flatten(self, start_dim)
    Tensor.transpose = lambda self, axes=None: transpose(self, axes)
    Tensor.exp = lambda self: exp(self)
    Tensor.log = lambda self: log(self)
    Tensor.sqrt = lambda self: sqrt(self)


def _unwrap(other):
    """Pass Tensors and scalars through; coerce sequences/arrays to arrays."""
    if isinstance(other, Tensor):
        return other
    if isinstance(other, (int, float, np.floating, np.integer)):
        return float(other)
    return np.asarray(other, dtype=np.float32)


def _raw(other):
    if isinstance(other, Tensor):
        return other.data
    return other


_install_tensor_ops()
