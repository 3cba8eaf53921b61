"""2-D convolution via im2col, with stride, padding, and groups support.

This module holds every conv kernel: :func:`_pad_batch_last`,
:func:`_im2col`, :func:`_weight_grad` and :func:`_col2im`.
:class:`Conv2d` runs them for eager autograd, and engine plans
(:mod:`repro.engine.plan`) replay the same ``Conv2d.forward``/``backward``,
so replay matches eager byte for byte by construction.  The integer
serving conv (:class:`repro.quant.lowered.IntConv2d`) pads and unfolds
its input codes with the same two helpers.

Layout
------
Tensors enter and leave in NCHW, but the kernels work with the batch
axis innermost, ``(C, H, W, N)``:

- The input is copied once into a zero-padded ``(C, Hp, Wp, N)`` buffer
  and unfolded into ``cols`` of shape ``(C, kh, kw, OH, OW, N)`` by
  ``kh·kw`` slice copies.  ``col2im`` is the same ``kh·kw`` slices, added
  into a padded ``(C, Hp, Wp, N)`` buffer.  Each copy and add moves
  contiguous rows of ``OW·N`` values at stride 1 and ``N`` at stride 2.
  In NCHW the rows would be ``OW`` values long, and a small-image
  ResNet's stages are only 2–12 pixels wide, so those rows cost more in
  loop overhead than in memory traffic.
- Viewed as ``(groups, C_in/groups·kh·kw, OH·OW·N)``, ``cols`` is the
  right operand of one GEMM per group for the forward, ``W @ cols``, and
  the left operand of one for the weight gradient, ``cols @ gradᵀ``,
  which reads the gradient transposed in place.  Each covers the whole
  batch in one call, and neither copies ``cols``.
- The backward copies the upstream gradient once into
  ``(groups, C_out/groups, OH·OW·N)``; both backward GEMMs read that copy.
  The input gradient is ``Wᵀ @ grad`` followed by ``col2im``.

The price is one NCHW ↔ batch-last copy each of the input, the output
and the upstream gradient, plus the input gradient when it is needed.
Grouped and depthwise convs (MobileNetV2) run as the same batched GEMM,
never a Python loop over channels.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

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


def _pad_batch_last(x: np.ndarray, ph: int, pw: int, dtype=None) -> np.ndarray:
    """NCHW ``x`` as a zero-padded ``(C, H + 2·ph, W + 2·pw, N)`` array.

    One copy that pads, moves the batch axis last and casts to ``dtype``
    (default: ``x.dtype``); the bytes of
    ``np.pad(x, ...).transpose(1, 2, 3, 0)``.
    """
    n, c, h, w = x.shape
    out = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=dtype or x.dtype)
    out[:, ph : ph + h, pw : pw + w] = x.transpose(1, 2, 3, 0)
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Patches ``(C, kh, kw, OH, OW, N)`` of a padded ``(C, Hp, Wp, N)`` input."""
    c, hp, wp, n = xp.shape
    oh, ow = (hp - kh) // sh + 1, (wp - kw) // sw + 1
    cols = np.empty((c, kh, kw, oh, ow, n), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols


def _col2im(
    cols: np.ndarray, padded_shape: Tuple[int, ...], sh: int, sw: int
) -> np.ndarray:
    """Scatter-add patches ``(C, kh, kw, OH, OW, N)`` into ``padded_shape``."""
    out = np.zeros(padded_shape, dtype=cols.dtype)
    _, kh, kw, oh, ow, _ = cols.shape
    for i in range(kh):
        for j in range(kw):
            out[:, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols[:, i, j]
    return out


def _weight_grad(grad_t: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """dL/dW ``(g, C_out/g, k)`` from grad ``(g, C_out/g, m)``, cols ``(g, k, m)``.

    ``m = OH·OW·N``: one GEMM per group contracts positions and batch
    together.  It runs as ``cols @ gradᵀ``, reading ``grad`` transposed
    in place, and returns the small ``(k, C_out/g)`` product as a
    transposed view; OpenBLAS runs these long, thin products up to twice
    as fast in this operand order as in ``grad @ colsᵀ``.
    """
    return np.matmul(cols, grad_t.transpose(0, 2, 1)).transpose(0, 2, 1)


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
        oh, ow = conv2d_output_shape((h, w), (kh, kw), stride, padding)
        xp = _pad_batch_last(x, *padding)
        self.padded_shape = xp.shape

        cols = _im2col(xp, kh, kw, *stride).reshape(groups, c_in_g * kh * kw, -1)
        w_mat = weight.reshape(groups, c_out // groups, c_in_g * kh * kw)
        out_t = np.matmul(w_mat, cols).reshape(c_out, oh, ow, n)
        out = np.ascontiguousarray(out_t.transpose(3, 0, 1, 2))
        if bias is not None:
            # In place: `out` is this call's own copy.
            out += bias.reshape(1, c_out, 1, 1)
        # The im2col buffer is the largest saved activation on deep
        # models; keep it only when a backward can run.
        self.cols = cols if self.needs_input_grad else None
        self.weight = weight
        return out

    def backward(self, grad):
        n, c_out, oh, ow = grad.shape
        groups = self.groups
        c_in, h, w = self.x_shape[1:]
        kh, kw = self.weight.shape[2], self.weight.shape[3]

        grad_t = np.ascontiguousarray(grad.transpose(1, 2, 3, 0))
        grad_t = grad_t.reshape(groups, c_out // groups, -1)
        grad_w = _weight_grad(grad_t, self.cols).reshape(self.weight.shape)

        # dL/dcols -> dL/dx via col2im, unless nothing reads it (the
        # stem conv, whose input is the image).
        grad_x = None
        if self.needs_input_grad[0]:
            w_mat = self.weight.reshape(groups, c_out // groups, -1)
            grad_cols = np.matmul(w_mat.transpose(0, 2, 1), grad_t)
            grad_cols = grad_cols.reshape(c_in, kh, kw, oh, ow, n)
            grad_p = _col2im(grad_cols, self.padded_shape, *self.stride)
            ph, pw = self.padding
            grad_x = np.ascontiguousarray(
                grad_p[:, ph : ph + h, pw : pw + w].transpose(3, 0, 1, 2)
            )

        grads = [grad_x, grad_w]
        if self.has_bias:
            grads.append(grad.sum(axis=(0, 2, 3)))
        # The engine calls backward once per node, so drop the im2col
        # buffer as soon as the grads exist.
        self.cols = None
        return tuple(grads[: len(self.needs_input_grad)])
