"""Matrix-multiplication operations."""

from __future__ import annotations

import numpy as np

from ..autograd import Function, unbroadcast


class MatMul(Function):
    """Matrix product supporting 2-D and batched (stacked) operands."""

    def forward(self, a, b):
        self.a, self.b = a, b
        return a @ b

    def backward(self, grad):
        a, b = self.a, self.b
        if a.ndim == 1:
            grad_a = grad @ np.swapaxes(b, -1, -2) if b.ndim > 1 else grad * b
        else:
            b_t = np.swapaxes(b, -1, -2) if b.ndim > 1 else b[None, :]
            grad_a = grad @ b_t if b.ndim > 1 else np.outer(grad, b)
        if b.ndim == 1:
            grad_b = np.swapaxes(a, -1, -2) @ grad if a.ndim > 1 else grad * a
        else:
            a_t = np.swapaxes(a, -1, -2) if a.ndim > 1 else a[:, None]
            grad_b = a_t @ grad
        grads = [unbroadcast(np.asarray(grad_a), a.shape)]
        if len(self.needs_input_grad) > 1:
            grads.append(unbroadcast(np.asarray(grad_b), b.shape))
        return tuple(grads)


class Linear(Function):
    """Fused affine map ``x @ W.T + b`` used by the Linear layer.

    Fusing the bias addition keeps one graph node per layer, which matters
    for the deep CIFAR ResNets (hundreds of layers) on this CPU-only stack.
    """

    def forward(self, x, weight, bias=None):
        self.x, self.weight = x, weight
        self.has_bias = bias is not None
        out = x @ weight.T
        if bias is not None:
            out = out + bias
        return out

    def backward(self, grad):
        grad_x = grad @ self.weight
        grad_w = grad.reshape(-1, grad.shape[-1]).T @ self.x.reshape(
            -1, self.x.shape[-1]
        )
        grads = [grad_x, grad_w]
        if self.has_bias:
            grads.append(grad.reshape(-1, grad.shape[-1]).sum(axis=0))
        return tuple(grads[: len(self.needs_input_grad)])
