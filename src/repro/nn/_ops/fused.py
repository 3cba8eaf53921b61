"""The fused ``add → relu`` op used by the tracing engine's plan compiler.

A fused op composes the *exact* arithmetic of its constituent ops in
their original order — fusion here means one graph node (one dispatch,
no intermediate Tensor) rather than a new arithmetic kernel, which is
what keeps replayed plans byte-identical to eager execution.  The
backward replays the constituent backward formulas verbatim, so
gradient bytes match too.

:class:`FusedAddRelu` is the residual join and activation of every
ResNet block.  It is an ordinary :class:`Function`, so it can also be
used directly; the engine's fusion pass only substitutes it where the
sum has a single consumer and is not itself a requested output.
Normalization layers need no fusion: each is one op already
(:mod:`repro.nn._ops.norm`).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Function, unbroadcast

__all__ = ["FusedAddRelu"]


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
