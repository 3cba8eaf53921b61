"""Precision schedules: alternatives to i.i.d. per-iteration sampling.

The paper samples ``(q1, q2)`` uniformly from the precision set each
iteration.  Its reference [3] (CPT — cyclic precision training) instead
*schedules* precision cyclically, arguing low precision early in training
acts like a high learning rate.  :class:`CyclicPrecisionSchedule` provides
that alternative so the sampling-vs-scheduling choice can be ablated
(``benchmarks/test_ablation_schedule.py``).
"""

from __future__ import annotations

import math
from typing import Tuple

from .precision_set import PrecisionSet

__all__ = ["CyclicPrecisionSchedule"]


class CyclicPrecisionSchedule:
    """CPT-style cosine cycling between the lowest and highest precision.

    Precision ramps low -> high over each cycle of ``period`` steps, then
    restarts at the lowest; the second precision of the pair is offset by
    half a cycle so the two encoder passes see different quantization
    levels (at every step on the ablation's 2-8 set).
    """

    def __init__(self, precision_set: PrecisionSet, period: int = 32) -> None:
        if period < 2:
            raise ValueError(f"period must be >= 2, got {period}")
        self.precision_set = PrecisionSet.parse(precision_set)
        self.period = period
        self.step_count = 0

    def _bits_at(self, step: int) -> int:
        lo = self.precision_set.min_bits
        hi = self.precision_set.max_bits
        phase = (step % self.period) / self.period
        # Cosine ramp low -> high within the cycle (half a cosine period).
        level = lo + (hi - lo) * 0.5 * (1.0 - math.cos(math.pi * phase))
        bits = int(round(level))
        # Snap to the nearest member of the set.
        return min(self.precision_set.bits, key=lambda b: abs(b - bits))

    def next_pair(self) -> Tuple[int, int]:
        q1 = self._bits_at(self.step_count)
        q2 = self._bits_at(self.step_count + self.period // 2)
        self.step_count += 1
        return q1, q2
