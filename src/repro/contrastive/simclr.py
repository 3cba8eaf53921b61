"""SimCLR: encoder + projection head trained with NT-Xent.

This module provides the vanilla SimCLR baseline the paper compares
against; the Contrastive Quant variants reuse :class:`SimCLRModel` through
:class:`repro.contrastive.cq.ContrastiveQuantTrainer`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..models.heads import ProjectionHead
from ..nn.optim import Optimizer
from ..nn.tensor import Tensor
from .base import TrainerBase
from .losses import nt_xent

__all__ = ["SimCLRModel", "SimCLRTrainer"]


class SimCLRModel(nn.Module):
    """Encoder ``f(.)`` followed by projection head ``g(.)``."""

    def __init__(
        self,
        encoder: nn.Module,
        projection_dim: int = 32,
        projection_hidden: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        head_norm: str = "batch",
    ) -> None:
        super().__init__()
        self.encoder = encoder
        self.projector = ProjectionHead(
            encoder.feature_dim,
            hidden_dim=projection_hidden,
            out_dim=projection_dim,
            rng=rng,
            norm=head_norm,
        )

    def forward(self, x) -> Tensor:
        """Projected representation ``g(f(x))`` used by the loss."""
        return self.projector(self.encoder(x))

    def features(self, x) -> Tensor:
        """Encoder representation ``f(x)`` used by downstream evaluation."""
        return self.encoder(x)


class SimCLRTrainer(TrainerBase):
    """Vanilla SimCLR pre-training loop.

    The loader must yield ``(view1, view2, labels)`` batches (use
    :class:`repro.data.TwoViewTransform`); labels are ignored — they exist
    so the same loader can be reused by evaluation code.  ``fit`` / events
    / ``metrics`` come from :class:`~repro.contrastive.base.TrainerBase`.
    """

    def __init__(
        self,
        model: SimCLRModel,
        optimizer: Optimizer,
        temperature: float = 0.5,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.temperature = temperature
        self._init_telemetry()

    def compute_loss(self, view1: np.ndarray, view2: np.ndarray) -> Tensor:
        self.metrics.counter("encoder_forwards").inc(2)
        z1 = self.model(Tensor(view1))
        z2 = self.model(Tensor(view2))
        return nt_xent(z1, z2, self.temperature)
