"""MoCo: momentum contrast with a negative-feature queue.

MoCo [He et al., CVPR 2020] is the paper's motivating related work
(Sec. 1).  A query encoder is trained against keys produced by a
momentum-updated key encoder, with negatives drawn from a FIFO queue of
past keys — decoupling the number of negatives from the batch size.

``precision_set`` optionally enables Contrastive Quant augmentation on the
query encoder (CQ-A style: each query batch is encoded at a freshly
sampled precision; the key encoder stays full precision for queue
consistency), demonstrating that the paper's mechanism ports beyond
SimCLR/BYOL.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import copy

import numpy as np

from .. import nn
from ..models.heads import ProjectionHead
from ..nn import functional as F
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

__all__ = ["MoCo", "MoCoTrainer"]


class MoCo(nn.Module):
    """Query/key encoders with projection heads and a key queue."""

    def __init__(
        self,
        encoder: nn.Module,
        projection_dim: int = 32,
        queue_size: int = 256,
        momentum: float = 0.99,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if queue_size < 2:
            raise ValueError(f"queue_size must be >= 2, got {queue_size}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        rng = ensure_rng(rng)
        self.momentum = momentum
        self.query_encoder = encoder
        self.query_projector = ProjectionHead(
            encoder.feature_dim, out_dim=projection_dim, rng=rng
        )
        self.key_encoder = copy.deepcopy(encoder)
        self.key_projector = copy.deepcopy(self.query_projector)
        for param in self.key_encoder.parameters():
            param.requires_grad = False
        for param in self.key_projector.parameters():
            param.requires_grad = False

        queue = rng.normal(size=(queue_size, projection_dim)).astype(np.float32)
        queue /= np.linalg.norm(queue, axis=1, keepdims=True) + 1e-8
        self.register_buffer("queue", queue)
        self.register_buffer("queue_ptr", np.array(0, dtype=np.int64))

    def trainable_parameters(self):
        yield from self.query_encoder.parameters()
        yield from self.query_projector.parameters()

    def query_forward(self, x) -> Tensor:
        return self.query_projector(self.query_encoder(x))

    def key_forward(self, x) -> Tensor:
        with nn.no_grad():
            keys = self.key_projector(self.key_encoder(x))
        return keys.detach()

    def update_key_encoder(self) -> None:
        """EMA update of the key branch from the query branch."""
        m = self.momentum
        for target, online in (
            (self.key_encoder, self.query_encoder),
            (self.key_projector, self.query_projector),
        ):
            online_params = dict(online.named_parameters())
            for name, param in target.named_parameters():
                param.data = m * param.data + (1 - m) * online_params[name].data

    def enqueue(self, keys: np.ndarray) -> None:
        """Push normalized keys into the FIFO queue (wrapping)."""
        keys = np.asarray(keys, dtype=np.float32)
        keys = keys / (np.linalg.norm(keys, axis=1, keepdims=True) + 1e-8)
        queue = self.queue.copy()
        ptr = int(self.queue_ptr)
        n = len(keys)
        size = len(queue)
        if n >= size:
            queue[:] = keys[-size:]
            ptr = 0
        else:
            end = ptr + n
            if end <= size:
                queue[ptr:end] = keys
            else:
                first = size - ptr
                queue[ptr:] = keys[:first]
                queue[: end % size] = keys[first:]
            ptr = end % size
        self.set_buffer("queue", queue)
        self.set_buffer("queue_ptr", np.array(ptr, dtype=np.int64))


class MoCoTrainer(TrainerBase):
    """MoCo training loop with optional Contrastive Quant augmentation.

    Loss: InfoNCE with the positive key from the key encoder and negatives
    from the queue.  With ``precision_set``, the query encoder is
    fake-quantized to a per-iteration sampled precision (CQ on MoCo).
    """

    def __init__(
        self,
        model: MoCo,
        optimizer: Optimizer,
        temperature: float = 0.2,
        precision_set: Optional[Union[str, PrecisionSet]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.temperature = temperature
        self.rng = ensure_rng(rng)
        self.precision_set = (
            PrecisionSet.parse(precision_set) if precision_set else None
        )
        if self.precision_set is not None:
            if count_quantized_modules(model.query_encoder) == 0:
                prepare(model.query_encoder)
        self._last_bits: Optional[int] = None
        self._init_telemetry()

    def compute_loss(self, view1: np.ndarray, view2: np.ndarray) -> Tensor:
        if self.precision_set is not None:
            self._last_bits = self.precision_set.sample(self.rng)
            self.metrics.gauge("precision_bits").set(self._last_bits)
            with precision(self.model.query_encoder, self._last_bits):
                q = self.model.query_forward(Tensor(view1))
        else:
            q = self.model.query_forward(Tensor(view1))
        q = F.normalize(q, axis=1)
        k = F.normalize(self.model.key_forward(Tensor(view2)), axis=1)
        self._last_keys = k.data

        positive = F.sum(q * k, axis=1, keepdims=True)  # (N, 1)
        negatives = F.matmul(q, Tensor(self.model.queue.T))  # (N, K)
        logits = F.concat([positive, negatives], axis=1) / self.temperature
        targets = np.zeros(q.shape[0], dtype=np.int64)
        return nn.losses.cross_entropy(logits, targets)

    def _after_step(self) -> None:
        self.model.update_key_encoder()
        self.model.enqueue(self._last_keys)

    def step_info(self) -> Dict[str, object]:
        if self._last_bits is None:
            return {}
        return {"bits": self._last_bits}

    def finalize(self) -> None:
        """Restore the query encoder to full precision."""
        if self.precision_set is not None:
            apply_precision(self.model.query_encoder, None)
