"""BYOL: bootstrap your own latent.

Online network (encoder + projector + predictor) learns to predict the
target network's projection of the other view; the target is an
exponential moving average of the online network and receives no
gradients.  Following the paper's Sec. 3.4 adaptation notes: MSE/cosine
loss, projection + prediction heads, stop-gradient on the target, and both
views passed through both networks alternately (symmetric loss).
"""

from __future__ import annotations

import copy
from typing import Optional

import numpy as np

from .. import nn
from ..models.heads import PredictionHead, ProjectionHead
from ..nn.optim import Optimizer
from ..nn.rng import ensure_rng
from ..nn.tensor import Tensor
from .base import TrainerBase
from .losses import byol_loss

__all__ = ["BYOL", "BYOLTrainer"]


class BYOL(nn.Module):
    """Online and target networks with EMA coupling.

    Only the online branch's parameters are trainable; call
    :meth:`update_target` after each optimizer step.
    """

    def __init__(
        self,
        encoder: nn.Module,
        projection_dim: int = 32,
        projection_hidden: Optional[int] = None,
        momentum: float = 0.99,
        rng: Optional[np.random.Generator] = None,
        head_norm: str = "batch",
    ) -> None:
        super().__init__()
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        rng = ensure_rng(rng)
        self.momentum = momentum
        self.online_encoder = encoder
        self.online_projector = ProjectionHead(
            encoder.feature_dim, projection_hidden, projection_dim, rng=rng,
            norm=head_norm,
        )
        self.predictor = PredictionHead(
            projection_dim, projection_dim, projection_dim, rng=rng,
            norm=head_norm,
        )
        self.target_encoder = copy.deepcopy(encoder)
        self.target_projector = copy.deepcopy(self.online_projector)
        self._freeze(self.target_encoder)
        self._freeze(self.target_projector)

    @staticmethod
    def _freeze(module: nn.Module) -> None:
        for param in module.parameters():
            param.requires_grad = False

    def trainable_parameters(self):
        """Parameters the optimizer should update (online branch only)."""
        yield from self.online_encoder.parameters()
        yield from self.online_projector.parameters()
        yield from self.predictor.parameters()

    def online_forward(self, x) -> Tensor:
        """Online branch prediction ``q(g(f(x)))``."""
        return self.predictor(self.online_projector(self.online_encoder(x)))

    def target_forward(self, x) -> Tensor:
        """Target branch projection, detached (stop-gradient)."""
        with nn.no_grad():
            out = self.target_projector(self.target_encoder(x))
        return out.detach()

    def features(self, x) -> Tensor:
        """Online encoder features for downstream evaluation."""
        return self.online_encoder(x)

    def update_target(self) -> None:
        """EMA update: ``target <- m * target + (1 - m) * online``."""
        pairs = [
            (self.target_encoder, self.online_encoder),
            (self.target_projector, self.online_projector),
        ]
        m = self.momentum
        for target, online in pairs:
            online_params = dict(online.named_parameters())
            for name, param in target.named_parameters():
                param.data = m * param.data + (1 - m) * online_params[name].data
            online_buffers = dict(online.named_buffers())
            for module_name, module in target.named_modules():
                for buf_name in list(module._buffers):
                    full = f"{module_name}.{buf_name}" if module_name else buf_name
                    module.set_buffer(buf_name, online_buffers[full])


class BYOLTrainer(TrainerBase):
    """Vanilla BYOL pre-training loop (symmetric two-view loss)."""

    def __init__(self, model: BYOL, optimizer: Optimizer) -> None:
        self.model = model
        self.optimizer = optimizer
        self._init_telemetry()

    def compute_loss(self, view1: np.ndarray, view2: np.ndarray) -> Tensor:
        v1, v2 = Tensor(view1), Tensor(view2)
        self.metrics.counter("encoder_forwards").inc(2)
        self.metrics.counter("target_forwards").inc(2)
        # Symmetric: each view is predicted from the other (historical
        # interleaved order — BatchNorm running stats depend on it).
        loss = byol_loss(self.model.online_forward(v1),
                         self.model.target_forward(v2))
        loss = loss + byol_loss(self.model.online_forward(v2),
                                self.model.target_forward(v1))
        return 0.5 * loss

    def _after_step(self) -> None:
        self.model.update_target()
