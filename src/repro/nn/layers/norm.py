"""Batch normalization layers (1-D and 2-D).

Both run the normalization op :class:`repro.nn._ops.norm.Normalize`:
with the batch's statistics in training (or without running buffers),
and with the running buffers in eval mode.  The op's forward folds each
batch's statistics into the buffers through
:meth:`_BatchNorm.update_running_stats`.
"""

from __future__ import annotations

import numpy as np

from .._ops.norm import Normalize
from ..module import Module, Parameter
from ..tensor import as_tensor

__all__ = ["BatchNorm1d", "BatchNorm2d"]


class _BatchNorm(Module):
    """Shared batch-norm machinery; subclasses fix the input rank."""

    _ndim = 2
    _layout = "(N, C)"

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        affine: bool = True,
        track_running_stats: bool = True,
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        self.track_running_stats = track_running_stats
        if affine:
            self.weight = Parameter(np.ones(num_features, dtype=np.float32))
            self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        if track_running_stats:
            self.register_buffer(
                "running_mean", np.zeros(num_features, dtype=np.float32)
            )
            self.register_buffer(
                "running_var", np.ones(num_features, dtype=np.float32)
            )
            self.register_buffer("num_batches_tracked", np.array(0, dtype=np.int64))

    # -- folding hook --------------------------------------------------------
    @property
    def can_fold(self) -> bool:
        """Whether eval-mode output is an affine function of the input.

        Only then can the layer be absorbed into a preceding conv/linear
        (``repro.quant.fold``): it needs tracked running statistics, which
        replace the per-batch statistics at inference time.
        """
        return bool(self.track_running_stats)

    def fold_params(self):
        """Per-channel ``(scale, shift)`` of the eval-mode transform.

        ``y = scale * x + shift`` with ``scale = gamma / sqrt(var + eps)``
        and ``shift = beta - scale * mean`` (gamma=1, beta=0 when not
        affine).  Computed in float64 so folding into a float32 weight
        loses no precision beyond the final cast.
        """
        if not self.can_fold:
            raise ValueError(
                f"{type(self).__name__} tracks no running statistics; "
                f"its eval output is not an affine map and cannot be folded"
            )
        var = np.asarray(self.running_var, dtype=np.float64)
        mean = np.asarray(self.running_mean, dtype=np.float64)
        scale = 1.0 / np.sqrt(var + self.eps)
        if self.affine:
            scale = scale * np.asarray(self.weight.data, dtype=np.float64)
            shift = np.asarray(self.bias.data, dtype=np.float64) - scale * mean
        else:
            shift = -scale * mean
        return scale, shift

    def update_running_stats(self, batch_mean, batch_var) -> None:
        """Fold one batch's mean and unbiased variance into the buffers.

        The normalization op calls this from its forward in training
        mode, once per forward, so eager steps, ``no_grad`` forwards and
        plan replays all update the buffers the same way.
        """
        m = self.momentum
        self.set_buffer(
            "running_mean", (1 - m) * self.running_mean + m * batch_mean
        )
        self.set_buffer(
            "running_var", (1 - m) * self.running_var + m * batch_var
        )
        self.set_buffer("num_batches_tracked", self.num_batches_tracked + 1)

    def forward(self, x):
        if x.ndim != self._ndim:
            raise ValueError(
                f"{type(self).__name__} expects {self._layout} input, "
                f"got {x.shape}"
            )
        x = as_tensor(x)
        weight, bias = ((self.weight, self.bias) if self.affine
                        else (None, None))
        if self.training or not self.track_running_stats:
            running = self if self.track_running_stats else None
            return Normalize.apply(x, weight, bias, eps=self.eps,
                                   running=running)
        return Normalize.apply(x, weight, bias, eps=self.eps,
                               mean=self.running_mean, var=self.running_var)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.num_features}, eps={self.eps}, "
            f"momentum={self.momentum}, affine={self.affine})"
        )


class BatchNorm1d(_BatchNorm):
    """Batch norm over (N, C) input."""

    _ndim = 2
    _layout = "(N, C)"


class BatchNorm2d(_BatchNorm):
    """Batch norm over (N, C, H, W) input."""

    _ndim = 4
    _layout = "(N, C, H, W)"
