"""Experiment configuration dataclasses.

A :class:`MethodSpec` names one row of a paper table (e.g. "SimCLR",
"CQ-A (6-16)"); a :class:`PretrainConfig` fixes the shared pre-training
budget; an :class:`EvalProtocol` fixes the downstream measurement grid.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

__all__ = ["MethodSpec", "PretrainConfig", "EvalProtocol"]


@dataclasses.dataclass(frozen=True)
class MethodSpec:
    """One pre-training method.

    ``variant=None`` is the vanilla baseline of ``base`` (SimCLR or BYOL);
    otherwise a Contrastive Quant variant name ("A", "B", "C", "QUANT").
    """

    name: str
    variant: Optional[str] = None
    precision_set: str = "6-16"
    base: str = "simclr"

    def __post_init__(self) -> None:
        if self.base not in ("simclr", "byol"):
            raise ValueError(f"base must be simclr or byol, got {self.base!r}")

    @property
    def is_baseline(self) -> bool:
        return self.variant is None


@dataclasses.dataclass(frozen=True)
class PretrainConfig:
    """Shared pre-training budget and model shape."""

    encoder: str = "resnet18"
    width_multiplier: float = 0.0625
    stem: str = "cifar"
    epochs: int = 6
    batch_size: int = 16
    lr: float = 2e-3
    temperature: float = 0.5
    projection_dim: int = 16
    augmentation_strength: float = 0.75
    byol_momentum: float = 0.99
    seed: int = 0
    #: CQ trainers: fuse same-precision view pairs into one 2N-batch
    #: encoder forward.  Safe to leave on: the trainer auto-disables
    #: fusion whenever the model contains batch-statistics layers
    #: (BatchNorm/Dropout), so reference BatchNorm configurations are
    #: unaffected.  The baseline trainers always encode views separately.
    fuse_views: bool = True
    #: step execution path: "trace" records one eager step per plan
    #: signature into a replayable plan (the ops eager ran, each on its
    #: own kernel; byte-identical to eager, with automatic eager
    #: fallback for untraceable steps), "eager" disables tracing.
    engine: str = "trace"
    #: augmentation workers prefetching batches ahead of the training
    #: step (0 = inline).  The loader's order-independent seeding makes
    #: batches byte-identical for any worker count, so this is a pure
    #: throughput knob.
    num_workers: int = 0
    #: batches in flight per worker when ``num_workers > 0``.
    prefetch_factor: int = 2

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ValueError(
                f"batch_size must be >= 2 (contrastive losses need pairs), "
                f"got {self.batch_size}"
            )
        if self.num_workers < 0:
            raise ValueError(
                f"num_workers must be >= 0, got {self.num_workers}"
            )
        if self.prefetch_factor < 1:
            raise ValueError(
                f"prefetch_factor must be >= 1, got {self.prefetch_factor}"
            )
        if self.engine not in ("trace", "eager"):
            raise ValueError(
                f"engine must be 'trace' or 'eager', got {self.engine!r}"
            )


@dataclasses.dataclass(frozen=True)
class EvalProtocol:
    """Downstream evaluation grid (the paper's table columns)."""

    label_fractions: Tuple[float, ...] = (0.1, 0.01)
    precisions: Tuple[Optional[int], ...] = (None, 4)
    finetune_epochs: int = 8
    finetune_lr: float = 0.1
    linear_epochs: int = 20
    batch_size: int = 16
    seed: int = 1
    #: fine-tuning runs are averaged over this many seeds (label subsets
    #: are tiny at 1%, so single-seed cells are dominated by subset luck).
    num_seeds: int = 1

    def __post_init__(self) -> None:
        for fraction in self.label_fractions:
            if not 0 < fraction <= 1:
                raise ValueError(f"bad label fraction {fraction}")
        if self.num_seeds < 1:
            raise ValueError(f"num_seeds must be >= 1, got {self.num_seeds}")

    def column_labels(self) -> Sequence[str]:
        """Human-readable labels matching the paper's table headers."""
        labels = []
        for precision in self.precisions:
            tag = "FP" if precision is None else f"{precision}-bit"
            for fraction in self.label_fractions:
                labels.append(f"{tag} {int(fraction * 100)}% labels")
        return labels
