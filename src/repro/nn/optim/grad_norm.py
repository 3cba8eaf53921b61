"""The global gradient norm the trainers log each step."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..module import Parameter

__all__ = ["global_grad_norm"]


def global_grad_norm(parameters: Iterable[Parameter]) -> float:
    """L2 norm of all gradients taken together (float64 accumulation)."""
    total = 0.0
    for param in parameters:
        if param.grad is not None:
            total += float(np.sum(param.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))
