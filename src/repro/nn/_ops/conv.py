"""2-D convolution via im2col, with stride, padding, and groups support.

This module holds every conv kernel: :func:`_zero_pad`,
:func:`_im2col`, :func:`_weight_grad` and :func:`_col2im`.
:class:`Conv2d` runs them for eager autograd, and engine plans
(:mod:`repro.engine.plan`) replay the same ``Conv2d.forward``/``backward``,
so replay matches eager byte for byte by construction.

Groups are handled fully vectorised: the im2col buffer is laid out as
``(N, groups, C_in/groups * kh * kw, OH * OW)`` and contracted against the
weight viewed as ``(groups, C_out/groups, C_in/groups * kh * kw)`` with a
single batched matmul.  The weight gradient is one BLAS GEMM per group
over the merged batch × position axis, ``(g, o, N·P) @ (g, N·P, k)``.
Depthwise convolution (MobileNetV2) is therefore as fast as a grouped
GEMM rather than a Python loop over channels.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..autograd import Function


def conv2d_output_shape(
    in_size: Tuple[int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[int, int]:
    """Spatial output size of a conv/pool with the given geometry."""
    oh = (in_size[0] + 2 * padding[0] - kernel_size[0]) // stride[0] + 1
    ow = (in_size[1] + 2 * padding[1] - kernel_size[1]) // stride[1] + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"convolution output would be empty: input {in_size}, "
            f"kernel {kernel_size}, stride {stride}, padding {padding}"
        )
    return oh, ow


def _zero_pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad H by ``ph`` and W by ``pw``; the bytes of ``np.pad``."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    out[:, :, ph : ph + h, pw : pw + w] = x
    return out


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Return patches of shape (N, C, kh, kw, OH, OW) from padded input."""
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]  # (N, C, OH, OW, kh, kw)
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, ...],
    kh: int,
    kw: int,
    sh: int,
    sw: int,
) -> np.ndarray:
    """Scatter-add patches (N, C, kh, kw, OH, OW) back to (N, C, H, W)."""
    out = np.zeros(x_shape, dtype=cols.dtype)
    oh, ow = cols.shape[4], cols.shape[5]
    for i in range(kh):
        h_end = i + sh * oh
        for j in range(kw):
            w_end = j + sw * ow
            out[:, :, i:h_end:sh, j:w_end:sw] += cols[:, :, i, j]
    return out


def _weight_grad(grad_mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """dL/dW (g, C_out/g, k) from grad (N, g, C_out/g, P), cols (N, g, k, P).

    Both operands are copied to ``(g, rows, N·P)`` so that a single
    GEMM per group contracts batch and positions together; the copies
    are per call, never kept.
    """
    n, groups, c_out_g, p = grad_mat.shape
    k = cols.shape[2]
    a = grad_mat.transpose(1, 2, 0, 3).reshape(groups, c_out_g, n * p)
    b = cols.transpose(1, 2, 0, 3).reshape(groups, k, n * p)
    return np.matmul(a, b.transpose(0, 2, 1))


class Conv2d(Function):
    """Grouped 2-D cross-correlation (deep-learning ``conv``)."""

    def forward(self, x, weight, bias=None, stride=(1, 1), padding=(0, 0),
                groups=1):
        self.stride, self.padding, self.groups = stride, padding, groups
        self.has_bias = bias is not None
        self.x_shape = x.shape
        n, c_in, h, w = x.shape
        c_out, c_in_g, kh, kw = weight.shape
        if c_in != c_in_g * groups:
            raise ValueError(
                f"input channels {c_in} incompatible with weight "
                f"{weight.shape} and groups={groups}"
            )
        ph, pw = padding
        if ph or pw:
            x = _zero_pad(x, ph, pw)
        self.padded_shape = x.shape
        oh, ow = conv2d_output_shape((h, w), (kh, kw), stride, padding)

        cols = _im2col(x, kh, kw, *stride)
        cols = cols.reshape(n, groups, c_in_g * kh * kw, oh * ow)
        w_mat = weight.reshape(groups, c_out // groups, c_in_g * kh * kw)
        # (N, g, C_out/g, OH*OW)
        out = np.matmul(w_mat[None], cols).reshape(n, c_out, oh, ow)
        if bias is not None:
            # In place: `out` is the matmul's own fresh output, so no
            # second (N, C, OH, OW) buffer is made.
            out += bias.reshape(1, c_out, 1, 1)
        self.cols = cols
        self.weight = weight
        return out

    def backward(self, grad):
        n, c_out, oh, ow = grad.shape
        groups = self.groups
        c_out_g = c_out // groups
        kh, kw = self.weight.shape[2], self.weight.shape[3]
        c_in_g = self.weight.shape[1]
        sh, sw = self.stride
        ph, pw = self.padding

        grad_mat = grad.reshape(n, groups, c_out_g, oh * ow)
        grad_w = _weight_grad(grad_mat, self.cols).reshape(self.weight.shape)

        # dL/dcols -> dL/dx via col2im, unless nothing reads it (the
        # stem conv, whose input is the image).
        grad_x = None
        if self.needs_input_grad[0]:
            w_mat = self.weight.reshape(groups, c_out_g, c_in_g * kh * kw)
            grad_cols = np.matmul(np.swapaxes(w_mat, 1, 2)[None], grad_mat)
            grad_cols = grad_cols.reshape(n, groups * c_in_g, kh, kw, oh, ow)
            grad_x = _col2im(grad_cols, self.padded_shape, kh, kw, sh, sw)
            if ph or pw:
                h, w = self.x_shape[2], self.x_shape[3]
                grad_x = grad_x[:, :, ph : ph + h, pw : pw + w]

        grads = [grad_x, grad_w]
        if self.has_bias:
            grads.append(grad.sum(axis=(0, 2, 3)))
        # The im2col buffer is the largest saved activation on deep models
        # (C_in * kh * kw * OH * OW floats per image); the engine calls
        # backward once per node, so drop it as soon as the grads exist.
        self.cols = None
        return tuple(grads[: len(self.parents)])
