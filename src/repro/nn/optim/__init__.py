"""Optimizers and learning-rate schedulers."""

from .adam import Adam
from .clip import clip_grad_norm, global_grad_norm
from .lr_scheduler import ConstantLR, CosineAnnealingLR, LRScheduler
from .optimizer import Optimizer
from .sgd import SGD

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "LRScheduler",
    "ConstantLR",
    "CosineAnnealingLR",
    "clip_grad_norm",
    "global_grad_norm",
]
