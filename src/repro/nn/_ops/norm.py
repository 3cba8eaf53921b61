"""Normalization as one op: GroupNorm, LayerNorm and BatchNorm.

:class:`Normalize` computes the statistics, normalizes and applies the
per-channel affine in one forward, and returns ``dx``, ``dweight`` and
``dbias`` in closed form from one backward.  GroupNorm, LayerNorm,
BatchNorm1d and BatchNorm2d (:mod:`repro.nn.layers`) all call it.  They
differ only in which values share statistics, and in where the
statistics come from:

- ``groups=G`` normalizes each sample over ``G`` groups of channels
  (GroupNorm; LayerNorm is one group over the last axis);
- ``groups=None`` normalizes each channel over the whole batch
  (BatchNorm), with the batch's statistics or, in eval mode, with the
  given ``mean`` and ``var``.  With batch statistics, the forward hands
  them to ``running.update_running_stats`` once per call, so a replayed
  plan repeats the update on the layer's own buffers.

Layout
------
The input is viewed as ``(N, C·S)``: ``N`` samples, ``C`` channels on
``channel_axis`` and ``S`` positions per channel.

- Per-sample statistics are row sums over the contiguous rows of the
  ``(N·G, C·S/G)`` view, so a sample's statistics do not depend on the
  batch it rides in: fused and unfused views give the same bytes.
- Batch statistics are column sums of ``(N, C·S)``, folded over ``S``.
- Per-channel vectors are repeated ``S`` times, so every broadcast runs
  over rows of ``C·S`` values rather than ``S``.  A small-image
  ResNet's late stages have ``S`` = 4 or 9, and rows that short cost
  more in loop overhead than in memory traffic.

Cost, in full-tensor passes: the forward makes five per channel (sum,
centre, sum of squares, scale, shift) and six per sample (plus an
in-place normalize).  ``** -0.5`` runs on the small statistics array
only.  The backward makes six per channel and nine per sample; the
weight and bias gradients are ``einsum`` contractions that never
materialize ``grad * xhat``.  Only when a backward can run does the
forward keep state: the centred input (per channel) or the normalized
input (per sample), and the inverse standard deviations.

Eager autograd and plan replay (:mod:`repro.engine.plan`) run the same
``forward`` and ``backward``, so replay matches eager byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from ..autograd import Function


class Normalize(Function):
    """``(x - mean) / sqrt(var + eps) · weight + bias`` as one tape op.

    ``weight`` and ``bias`` are per-channel and come together or not at
    all.  ``mean`` and ``var`` (per channel, ``groups=None`` only)
    replace the batch statistics; ``running`` receives the batch
    statistics of every forward that computes them.
    """

    def forward(self, x, weight=None, bias=None, *, groups=None,
                channel_axis=1, eps=1e-5, mean=None, var=None, running=None):
        axis = channel_axis % x.ndim
        n = math.prod(x.shape[:axis])
        s = math.prod(x.shape[axis + 1:])
        self.in_shape, self.n, self.s = x.shape, n, s
        self.per_sample = groups is not None
        if self.per_sample:
            out, saved = self._per_sample(
                x.reshape(n * groups, -1), weight, bias, eps)
        else:
            out, saved = self._per_channel(
                x.reshape(n, -1), weight, bias, eps, mean, var, running)
        # Backward state only when a backward can run.
        self.saved = saved + (weight,) if self.needs_input_grad else None
        return out.reshape(x.shape)

    def _per_sample(self, rows, weight, bias, eps):
        m = rows.shape[1]
        xhat = rows - (rows.sum(axis=1) / m)[:, None]
        inv_std = (np.einsum("ij,ij->i", xhat, xhat) / m + eps) ** -0.5
        xhat *= inv_std[:, None]
        if weight is None:
            return xhat, (xhat, inv_std)
        out = xhat.reshape(self.n, -1) * np.repeat(weight, self.s)
        out += np.repeat(bias, self.s)
        return out, (xhat, inv_std)

    def _per_channel(self, x2, weight, bias, eps, mean, var, running):
        s, count = self.s, x2.shape[0] * self.s
        self.batch_stats = var is None
        if mean is None:
            mean = x2.sum(axis=0).reshape(-1, s).sum(axis=1) / count
        centered = x2 - np.repeat(mean, s)
        if var is None:
            var = np.einsum("ij,ij->j", centered, centered)
            var = var.reshape(-1, s).sum(axis=1) / count
            if running is not None:
                unbiased = var * (count / max(count - 1.0, 1.0))
                running.update_running_stats(mean, unbiased)
        inv_std = (var + eps) ** -0.5
        scale = inv_std if weight is None else inv_std * weight
        out = centered * np.repeat(scale, s)
        if bias is not None:
            out += np.repeat(bias, s)
        return out, (centered, inv_std)

    def backward(self, grad):
        g2 = grad.reshape(self.n, -1)
        if self.per_sample:
            grads = self._per_sample_grads(g2)
        else:
            grads = self._per_channel_grads(g2)
        # The engine calls backward once per node.
        self.saved = None
        return grads[: len(self.needs_input_grad)]

    def _per_sample_grads(self, g2):
        xhat, inv_std, weight = self.saved
        s, m = self.s, xhat.shape[1]
        dweight = dbias = None
        if weight is not None:
            dbias = g2.sum(axis=0).reshape(-1, s).sum(axis=1)
            dweight = np.einsum("ij,ij->j", g2, xhat.reshape(self.n, -1))
            dweight = dweight.reshape(-1, s).sum(axis=1)
        dx = None
        if self.needs_input_grad[0]:
            # dx = (g·w - mean(g·w) - xhat·mean(g·w·xhat)) / std, per row.
            gw = g2 if weight is None else g2 * np.repeat(weight, s)
            gw = gw.reshape(xhat.shape)
            dx = xhat * (np.einsum("ij,ij->i", gw, xhat) / m)[:, None]
            np.subtract(gw, dx, out=dx)
            dx -= (gw.sum(axis=1) / m)[:, None]
            dx *= inv_std[:, None]
            dx = dx.reshape(self.in_shape)
        return dx, dweight, dbias

    def _per_channel_grads(self, g2):
        centered, inv_std, weight = self.saved
        s = self.s
        dbias = g2.sum(axis=0).reshape(-1, s).sum(axis=1)
        # Σ g·(x - mean) per channel; dweight is this over the std.
        proj = np.einsum("ij,ij->j", g2, centered).reshape(-1, s).sum(axis=1)
        dx = None
        if self.needs_input_grad[0]:
            k = inv_std if weight is None else inv_std * weight
            dx = g2 * np.repeat(k, s)
            if self.batch_stats:
                # The terms through the batch mean and variance.
                count = g2.shape[0] * s
                dx -= centered * np.repeat(k * inv_std**2 * proj / count, s)
                dx -= np.repeat(k * dbias / count, s)
            dx = dx.reshape(self.in_shape)
        return dx, proj * inv_std, dbias
