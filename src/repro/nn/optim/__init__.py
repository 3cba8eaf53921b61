"""Optimizers and learning-rate schedulers."""

from .adam import Adam
from .grad_norm import global_grad_norm
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
    "global_grad_norm",
]
