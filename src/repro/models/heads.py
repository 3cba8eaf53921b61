"""Projection and prediction heads for contrastive learning.

SimCLR attaches a projection head (2-layer MLP) after the encoder; BYOL
additionally attaches a prediction head on the online branch.  Both follow
the Linear -> BN -> ReLU -> Linear shape of the reference implementations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.rng import ensure_rng

__all__ = ["ProjectionHead", "PredictionHead"]


def _head_norm(kind: str, dim: int) -> nn.Module:
    """Hidden-layer normalization for the MLP heads.

    ``"batch"`` is the reference SimCLR/BYOL choice; ``"layer"`` and
    ``"none"`` are per-sample alternatives that keep the head free of
    batch statistics, which is what allows the CQ trainer's fused
    multi-view forwards to stay bit-identical to per-view ones (see
    ``ContrastiveQuantTrainer``'s ``fuse_views``).
    """
    if kind == "batch":
        return nn.BatchNorm1d(dim)
    if kind == "layer":
        return nn.LayerNorm(dim)
    if kind == "none":
        return nn.Identity()
    raise ValueError(
        f"unknown head norm {kind!r}; expected 'batch', 'layer', or 'none'"
    )


class ProjectionHead(nn.Module):
    """2-layer MLP projection head (SimCLR's ``g(.)``)."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: Optional[int] = None,
        out_dim: int = 64,
        rng: Optional[np.random.Generator] = None,
        norm: str = "batch",
    ) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        hidden_dim = hidden_dim or in_dim
        self.fc1 = nn.Linear(in_dim, hidden_dim, rng=rng)
        # Attribute stays "bn" whatever the norm kind so checkpoint
        # parameter names are independent of the norm choice.
        self.bn = _head_norm(norm, hidden_dim)
        self.fc2 = nn.Linear(hidden_dim, out_dim, bias=False, rng=rng)
        self.out_dim = out_dim

    def forward(self, x):
        return self.fc2(F.relu(self.bn(self.fc1(x))))


class PredictionHead(ProjectionHead):
    """BYOL's online-branch predictor ``q(.)`` — same MLP shape.

    A distinct class keeps checkpoint names and intent explicit even though
    the architecture matches the projection head.
    """
