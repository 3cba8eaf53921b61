"""Precision sets and per-iteration precision sampling.

The paper samples two precisions ``q1, q2`` from a predefined set each
training iteration.  The sets used are 4-16, 6-16, and 8-16 (every integer
bit-width in the range, inclusive).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["PrecisionSet", "FULL_PRECISION"]

#: Sentinel for full precision (no quantization).
FULL_PRECISION: Optional[int] = None


class PrecisionSet:
    """An ordered set of integer bit-widths with sampling utilities.

    Construct from a spec string ("6-16"), a range, or an explicit list::

        PrecisionSet.parse("6-16")      # 6, 7, ..., 16
        PrecisionSet([4, 8, 16])
    """

    def __init__(self, bits: Sequence[int]) -> None:
        cleaned = sorted(set(int(b) for b in bits))
        if not cleaned:
            raise ValueError("precision set must not be empty")
        if cleaned[0] < 1:
            raise ValueError(f"bit-widths must be >= 1, got {cleaned[0]}")
        if cleaned[-1] > 32:
            raise ValueError(f"bit-widths must be <= 32, got {cleaned[-1]}")
        self.bits: Tuple[int, ...] = tuple(cleaned)

    @classmethod
    def parse(cls, spec: Union[str, "PrecisionSet", Sequence[int]]) -> "PrecisionSet":
        """Parse "lo-hi" range specs (the paper's notation) or pass through."""
        if isinstance(spec, PrecisionSet):
            return spec
        if isinstance(spec, str):
            try:
                lo_text, hi_text = spec.split("-")
                lo, hi = int(lo_text), int(hi_text)
            except ValueError as exc:
                raise ValueError(
                    f"precision spec must look like '6-16', got {spec!r}"
                ) from exc
            if lo > hi:
                raise ValueError(f"inverted precision range: {spec!r}")
            return cls(range(lo, hi + 1))
        return cls(spec)

    # -- sampling -------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> int:
        """Draw one precision uniformly."""
        return int(rng.choice(self.bits))

    def sample_pair(self, rng: np.random.Generator) -> Tuple[int, int]:
        """Draw the per-iteration ``(q1, q2)`` pair: two independent draws,
        so the two precisions may coincide, as in the paper."""
        return self.sample(rng), self.sample(rng)

    # -- container protocol -----------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __contains__(self, bits: int) -> bool:
        return int(bits) in self.bits

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PrecisionSet):
            return self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        lo, hi = self.bits[0], self.bits[-1]
        if self.bits == tuple(range(lo, hi + 1)):
            return f"PrecisionSet('{lo}-{hi}')"
        return f"PrecisionSet({list(self.bits)})"

    @property
    def min_bits(self) -> int:
        return self.bits[0]

    @property
    def max_bits(self) -> int:
        return self.bits[-1]

    def diversity(self) -> int:
        """Number of distinct precisions (Table 8 links this to accuracy)."""
        return len(self.bits)
