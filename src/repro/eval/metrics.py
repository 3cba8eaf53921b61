"""Classification metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1] from (N, C) logits and (N,) labels."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if len(logits) != len(labels):
        raise ValueError(f"{len(logits)} logits vs {len(labels)} labels")
    if len(labels) == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    return float((logits.argmax(axis=1) == labels).mean())
