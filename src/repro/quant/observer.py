"""The activation-range observer of the deployment pipeline.

Training never observes: the paper quantizes each tensor with its own
dynamic range on every call.  For deployment, :func:`repro.quant.prepare`
attaches one :class:`MinMaxObserver` per quantized module and
:func:`repro.quant.calibrate` fits it on representative batches;
:func:`repro.quant.convert` then freezes the fitted range into the integer
kernels' activation grid.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["MinMaxObserver"]


class MinMaxObserver:
    """Track the running min/max of everything observed."""

    def __init__(self) -> None:
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def update(self, array: np.ndarray) -> Tuple[float, float]:
        lo = float(np.min(array))
        hi = float(np.max(array))
        self.min = lo if self.min is None else min(self.min, lo)
        self.max = hi if self.max is None else max(self.max, hi)
        return self.min, self.max

    def reset(self) -> None:
        self.min = None
        self.max = None
