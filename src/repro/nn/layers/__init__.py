"""Neural-network layers built on the module system."""

from .activation import LeakyReLU, ReLU, ReLU6, Sigmoid, Tanh
from .container import Identity, ModuleList, Sequential
from .conv import Conv2d
from .dropout import Dropout
from .groupnorm import GroupNorm, LayerNorm
from .linear import Linear
from .norm import BatchNorm1d, BatchNorm2d, _BatchNorm
from .pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d


def contains_batch_statistics(module) -> bool:
    """True if any submodule couples samples within a batch or consumes
    per-call randomness (BatchNorm statistics, Dropout masks).

    Such modules make a fused multi-sample forward numerically different
    from per-group forwards, so ``ContrastiveQuantTrainer``'s
    ``fuse_views`` path uses this to fall back to separate forwards (and
    to keep such steps off plan replay).
    """
    return any(
        isinstance(m, (_BatchNorm, Dropout)) for m in module.modules()
    )


__all__ = [
    "contains_batch_statistics",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "GroupNorm",
    "LayerNorm",
    "ReLU",
    "ReLU6",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "Sequential",
    "ModuleList",
    "Identity",
]
