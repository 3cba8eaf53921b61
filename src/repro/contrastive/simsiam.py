"""SimSiam: siamese representation learning with stop-gradient only.

SimSiam [Chen & He, 2020] is the paper's reference [12]: no negatives, no
momentum encoder — one branch predicts the other's projection while the
target side is detached.  ``precision_set`` optionally applies
Contrastive Quant augmentation (CQ-C style cross-precision consistency)
to the shared encoder.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from .. import nn
from ..models.heads import PredictionHead, ProjectionHead
from ..nn.optim import Optimizer
from ..nn.rng import ensure_rng
from ..nn.tensor import Tensor
from ..quant import (
    PrecisionSet,
    apply_precision,
    count_quantized_modules,
    precision,
    prepare,
)
from .base import TrainerBase
from .losses import byol_loss

__all__ = ["SimSiam", "SimSiamTrainer"]


class SimSiam(nn.Module):
    """Shared encoder + projector, with a predictor on the online path."""

    def __init__(
        self,
        encoder: nn.Module,
        projection_dim: int = 32,
        rng: Optional[np.random.Generator] = None,
        head_norm: str = "batch",
    ) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.encoder = encoder
        self.projector = ProjectionHead(
            encoder.feature_dim, out_dim=projection_dim, rng=rng,
            norm=head_norm,
        )
        self.predictor = PredictionHead(
            projection_dim, projection_dim, projection_dim, rng=rng,
            norm=head_norm,
        )

    def project(self, x) -> Tensor:
        return self.projector(self.encoder(x))

    def predict(self, z: Tensor) -> Tensor:
        return self.predictor(z)


class SimSiamTrainer(TrainerBase):
    """Symmetric stop-gradient loss: D(p1, z2)/2 + D(p2, z1)/2.

    With ``precision_set``, each view's projection is computed at a
    per-iteration sampled precision, and the symmetric loss enforces
    cross-precision consistency — the CQ mechanism on a negative-free,
    EMA-free base.
    """

    def __init__(
        self,
        model: SimSiam,
        optimizer: Optimizer,
        precision_set: Optional[Union[str, PrecisionSet]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.rng = ensure_rng(rng)
        self.precision_set = (
            PrecisionSet.parse(precision_set) if precision_set else None
        )
        if self.precision_set is not None:
            if count_quantized_modules(model.encoder) == 0:
                prepare(model.encoder)
        self._last_pair: Optional[Tuple[int, int]] = None
        self._init_telemetry()

    def _project(self, x: Tensor, bits: Optional[int]) -> Tensor:
        self.metrics.counter("encoder_forwards").inc()
        if self.precision_set is not None:
            with precision(self.model.encoder, bits):
                return self.model.project(x)
        return self.model.project(x)

    def compute_loss(self, view1: np.ndarray, view2: np.ndarray) -> Tensor:
        if self.precision_set is not None:
            q1, q2 = self.precision_set.sample_pair(self.rng)
            self._last_pair = (q1, q2)
            self.metrics.gauge("precision_bits", which="q1").set(q1)
            self.metrics.gauge("precision_bits", which="q2").set(q2)
        else:
            q1 = q2 = None
        z1 = self._project(Tensor(view1), q1)
        z2 = self._project(Tensor(view2), q2)
        p1 = self.model.predict(z1)
        p2 = self.model.predict(z2)
        return 0.5 * (byol_loss(p1, z2.detach()) + byol_loss(p2, z1.detach()))

    def step_info(self) -> Dict[str, object]:
        if self._last_pair is None:
            return {}
        q1, q2 = self._last_pair
        return {"q1": q1, "q2": q2}

    def finalize(self) -> None:
        if self.precision_set is not None:
            apply_precision(self.model.encoder, None)
