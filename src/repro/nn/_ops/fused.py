"""Fused elementwise chains used by the tracing engine's plan compiler.

Each fused op composes the *exact* arithmetic of its constituent ops in
their original order — fusion here means one graph node (one dispatch,
no intermediate Tensor) rather than a new arithmetic kernel, which is
what keeps replayed plans byte-identical to eager execution.  The backward methods replay the constituent backward
formulas verbatim, innermost-last, so gradient bytes match too.

These are registered alongside the primitives so they can also be used
directly (they are ordinary :class:`Function` subclasses); the engine's
fusion pass only substitutes them where the interior value has a single
consumer and is not itself a requested output.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Function, unbroadcast

__all__ = ["FusedMulAdd", "FusedAddRelu", "FusedMulAddRelu"]


class FusedMulAdd(Function):
    """``(a * b) + c`` — the norm/affine tail (scale then shift)."""

    def forward(self, a, b, c):
        self.a, self.b = a, b
        mul = a * b
        self.mul_shape = mul.shape
        self.c_shape = np.shape(c)
        return mul + c

    def backward(self, grad):
        # Add.backward first (outermost), then Mul.backward — the same
        # formulas eager runs at the two original schedule positions.
        g_mul = unbroadcast(grad, self.mul_shape)
        grads = [
            unbroadcast(g_mul * self.b, np.shape(self.a)),
            unbroadcast(g_mul * self.a, np.shape(self.b)),
            unbroadcast(grad, self.c_shape),
        ]
        return tuple(grads[: len(self.parents)])


class FusedAddRelu(Function):
    """``relu(a + b)`` — residual-join + activation."""

    def forward(self, a, b):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        s = a + b
        self.mask = s > 0
        return s * self.mask

    def backward(self, grad):
        g = grad * self.mask
        grads = [unbroadcast(g, self.a_shape)]
        if len(self.parents) > 1:
            grads.append(unbroadcast(g, self.b_shape))
        return tuple(grads)


class FusedMulAddRelu(Function):
    """``relu((a * b) + c)`` — affine tail feeding an activation."""

    def forward(self, a, b, c):
        self.a, self.b = a, b
        mul = a * b
        self.mul_shape = mul.shape
        self.c_shape = np.shape(c)
        s = mul + c
        self.mask = s > 0
        return s * self.mask

    def backward(self, grad):
        g = grad * self.mask
        g_mul = unbroadcast(g, self.mul_shape)
        grads = [
            unbroadcast(g_mul * self.b, np.shape(self.a)),
            unbroadcast(g_mul * self.a, np.shape(self.b)),
            unbroadcast(g, self.c_shape),
        ]
        return tuple(grads[: len(self.parents)])
