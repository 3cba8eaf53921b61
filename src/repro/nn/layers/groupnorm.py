"""Group and layer normalization: statistics per sample.

GroupNorm and LayerNorm normalize each sample on its own, so the samples
of a batch do not affect one another.  That is what lets the contrastive
trainers encode both views as one fused batch and the engine replay
their steps as compiled plans.  The paper's reference architectures use
BatchNorm; ``resnet18(norm="group")`` and ``head_norm="layer"`` swap
these layers in.  All three layer kinds run one normalization op,
:class:`repro.nn._ops.norm.Normalize`.
"""

from __future__ import annotations

import numpy as np

from .._ops.norm import Normalize
from ..module import Module, Parameter
from ..tensor import as_tensor

__all__ = ["GroupNorm", "LayerNorm"]


class GroupNorm(Module):
    """Normalize over channel groups and spatial dims of NCHW input."""

    def __init__(self, num_groups: int, num_channels: int,
                 eps: float = 1e-5, affine: bool = True) -> None:
        super().__init__()
        if num_channels % num_groups:
            raise ValueError(
                f"{num_channels} channels not divisible by "
                f"{num_groups} groups"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(num_channels, dtype=np.float32))
            self.bias = Parameter(np.zeros(num_channels, dtype=np.float32))

    def forward(self, x):
        if x.ndim != 4:
            raise ValueError(f"GroupNorm expects NCHW input, got {x.shape}")
        if x.shape[1] != self.num_channels:
            raise ValueError(
                f"expected {self.num_channels} channels, got {x.shape[1]}"
            )
        weight, bias = ((self.weight, self.bias) if self.affine
                        else (None, None))
        return Normalize.apply(
            as_tensor(x), weight, bias, groups=self.num_groups, eps=self.eps
        )

    def __repr__(self) -> str:
        return (
            f"GroupNorm({self.num_groups}, {self.num_channels}, "
            f"eps={self.eps})"
        )


class LayerNorm(Module):
    """Normalize over the last dimension of (N, ..., D) input."""

    def __init__(self, normalized_dim: int, eps: float = 1e-5,
                 affine: bool = True) -> None:
        super().__init__()
        if normalized_dim <= 0:
            raise ValueError(
                f"normalized_dim must be positive, got {normalized_dim}"
            )
        self.normalized_dim = normalized_dim
        self.eps = eps
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(normalized_dim,
                                            dtype=np.float32))
            self.bias = Parameter(np.zeros(normalized_dim,
                                           dtype=np.float32))

    def forward(self, x):
        if x.shape[-1] != self.normalized_dim:
            raise ValueError(
                f"expected last dim {self.normalized_dim}, got {x.shape}"
            )
        weight, bias = ((self.weight, self.bias) if self.affine
                        else (None, None))
        return Normalize.apply(
            as_tensor(x), weight, bias, groups=1, channel_axis=-1, eps=self.eps
        )

    def __repr__(self) -> str:
        return f"LayerNorm({self.normalized_dim}, eps={self.eps})"
