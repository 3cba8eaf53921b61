"""Learning-rate schedulers driving ``Optimizer.lr``.

Pre-training runs Adam at a fixed rate; the fine-tuning, linear and
detection evaluations run SGD under :class:`CosineAnnealingLR`, the
paper's schedule.
"""

from __future__ import annotations

import math
from typing import Dict

from .optimizer import Optimizer

__all__ = ["LRScheduler", "ConstantLR", "CosineAnnealingLR"]


class LRScheduler:
    """Base scheduler: subclasses map an epoch index to a learning rate."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_epoch = -1

    def get_lr(self, epoch: int) -> float:
        raise NotImplementedError

    def step(self) -> float:
        """Advance one epoch and apply the new learning rate."""
        self.last_epoch += 1
        lr = self.get_lr(self.last_epoch)
        self.optimizer.lr = lr
        return lr

    def state_dict(self) -> Dict[str, object]:
        """Snapshot of the scheduler position (JSON-friendly)."""
        return {
            "type": type(self).__name__,
            "base_lr": float(self.base_lr),
            "last_epoch": int(self.last_epoch),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a snapshot; the next ``step()`` continues the schedule."""
        saved_type = state.get("type")
        if saved_type is not None and saved_type != type(self).__name__:
            raise ValueError(
                f"scheduler state is for {saved_type}, not "
                f"{type(self).__name__}"
            )
        self.base_lr = float(state["base_lr"])
        self.last_epoch = int(state["last_epoch"])
        if self.last_epoch >= 0:
            self.optimizer.lr = self.get_lr(self.last_epoch)


class ConstantLR(LRScheduler):
    def get_lr(self, epoch: int) -> float:
        return self.base_lr


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base LR to ``min_lr`` over ``t_max`` epochs.

    This is the fine-tuning schedule of the paper (initial LR 0.1, cosine).
    """

    def __init__(self, optimizer: Optimizer, t_max: int, min_lr: float = 0.0) -> None:
        super().__init__(optimizer)
        if t_max <= 0:
            raise ValueError(f"t_max must be positive, got {t_max}")
        self.t_max = t_max
        self.min_lr = min_lr

    def get_lr(self, epoch: int) -> float:
        progress = min(epoch, self.t_max) / self.t_max
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (
            1.0 + math.cos(math.pi * progress)
        )
