"""ResNet encoders.

Two families, matching the paper's evaluation:

- **ImageNet-style** ResNet-18/34: 7x7 stride-2 stem + max-pool, four
  stages of BasicBlocks with channel widths (64, 128, 256, 512) x width
  multiplier.  Used for the ImageNet-like experiments (Tables 1-3).
- **CIFAR-style** ResNet-18/34/74/110/152: 3x3 stride-1 stem.  For depths
  18/34 the four-stage BasicBlock layout is kept (stem swapped); for the
  deep 6n+2 family (74 = 6*12+2, 110 = 6*18+2, 152 = 6*25+2) the classic
  three-stage CIFAR layout with widths (16, 32, 64) is used.

The forward pass returns pooled features (N, feature_dim); classification
heads are attached by the evaluation harnesses, and projection heads by the
contrastive trainers.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.rng import ensure_rng

__all__ = [
    "BasicBlock",
    "ResNet",
    "resnet18",
    "resnet34",
    "resnet74",
    "resnet110",
    "resnet152",
]


def _scaled(width: int, multiplier: float) -> int:
    """Scale a channel width, keeping at least 4 channels."""
    return max(4, int(round(width * multiplier)))


def _norm2d(kind: str, channels: int) -> nn.Module:
    """2-D normalization layer factory.

    ``"batch"`` is the reference choice; ``"group"`` (GroupNorm with up to
    8 groups, degrading gracefully for narrow widths) normalizes per
    sample, making the encoder safe for fused multi-view batching.
    """
    if kind == "batch":
        return nn.BatchNorm2d(channels)
    if kind == "group":
        return nn.GroupNorm(math.gcd(8, channels), channels)
    raise ValueError(f"unknown norm {kind!r}; expected 'batch' or 'group'")


class BasicBlock(nn.Module):
    """Two 3x3 convolutions with an identity (or projected) shortcut."""

    expansion = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int,
        rng: np.random.Generator,
        norm: str = "batch",
    ) -> None:
        super().__init__()
        self.conv1 = nn.Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1,
            bias=False, rng=rng,
        )
        self.bn1 = _norm2d(norm, out_channels)
        self.conv2 = nn.Conv2d(
            out_channels, out_channels, 3, stride=1, padding=1,
            bias=False, rng=rng,
        )
        self.bn2 = _norm2d(norm, out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride,
                          bias=False, rng=rng),
                _norm2d(norm, out_channels),
            )
        else:
            self.shortcut = nn.Identity()

    def forward(self, x):
        out = F.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return F.add_relu(out, self.shortcut(x))


class ResNet(nn.Module):
    """Generic ResNet over BasicBlocks.

    Parameters
    ----------
    stage_blocks:
        Blocks per stage, e.g. (2, 2, 2, 2) for ResNet-18.
    stage_widths:
        Output channels per stage (before the width multiplier).
    stem:
        "imagenet" (7x7/2 conv + 3x3/2 max-pool) or "cifar" (3x3/1 conv).
    width_multiplier:
        Uniform channel scaling — the benchmark harness uses < 1 values to
        keep CPU runtimes sane while preserving the architecture shape.
    """

    def __init__(
        self,
        stage_blocks: Sequence[int],
        stage_widths: Sequence[int],
        stem: str = "cifar",
        width_multiplier: float = 1.0,
        in_channels: int = 3,
        rng: Optional[np.random.Generator] = None,
        norm: str = "batch",
    ) -> None:
        super().__init__()
        if len(stage_blocks) != len(stage_widths):
            raise ValueError(
                f"{len(stage_blocks)} stages but {len(stage_widths)} widths"
            )
        if stem not in ("imagenet", "cifar"):
            raise ValueError(f"unknown stem {stem!r}")
        rng = ensure_rng(rng)
        widths = [_scaled(w, width_multiplier) for w in stage_widths]
        stem_width = widths[0]

        self.stem_kind = stem
        if stem == "imagenet":
            self.stem_conv = nn.Conv2d(
                in_channels, stem_width, 7, stride=2, padding=3,
                bias=False, rng=rng,
            )
        else:
            self.stem_conv = nn.Conv2d(
                in_channels, stem_width, 3, stride=1, padding=1,
                bias=False, rng=rng,
            )
        # Attribute stays "stem_bn" whatever the norm kind so checkpoint
        # parameter names are independent of the norm choice.
        self.stem_bn = _norm2d(norm, stem_width)

        stages: List[nn.Sequential] = []
        current = stem_width
        for stage_index, (blocks, width) in enumerate(zip(stage_blocks, widths)):
            stride = 1 if stage_index == 0 else 2
            layers = []
            for block_index in range(blocks):
                layers.append(
                    BasicBlock(
                        current,
                        width,
                        stride if block_index == 0 else 1,
                        rng,
                        norm=norm,
                    )
                )
                current = width
            stages.append(nn.Sequential(*layers))
        self.stages = nn.ModuleList(stages)
        self.feature_dim = current

    def forward(self, x):
        out = F.relu(self.stem_bn(self.stem_conv(x)))
        if self.stem_kind == "imagenet":
            out = F.max_pool2d(out, 3, stride=2, padding=1)
        for stage in self.stages:
            out = stage(out)
        return F.global_avg_pool2d(out)

    def forward_spatial(self, x):
        """Feature map before pooling — used by the detection head."""
        out = F.relu(self.stem_bn(self.stem_conv(x)))
        if self.stem_kind == "imagenet":
            out = F.max_pool2d(out, 3, stride=2, padding=1)
        for stage in self.stages:
            out = stage(out)
        return out


def resnet18(
    stem: str = "cifar",
    width_multiplier: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    norm: str = "batch",
) -> ResNet:
    """ResNet-18: four stages of (2, 2, 2, 2) BasicBlocks."""
    return ResNet((2, 2, 2, 2), (64, 128, 256, 512), stem, width_multiplier,
                  rng=rng, norm=norm)


def resnet34(
    stem: str = "cifar",
    width_multiplier: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    norm: str = "batch",
) -> ResNet:
    """ResNet-34: four stages of (3, 4, 6, 3) BasicBlocks."""
    return ResNet((3, 4, 6, 3), (64, 128, 256, 512), stem, width_multiplier,
                  rng=rng, norm=norm)


def _cifar_deep(depth: int, width_multiplier: float,
                rng: Optional[np.random.Generator],
                norm: str = "batch") -> ResNet:
    if (depth - 2) % 6 != 0:
        raise ValueError(f"CIFAR ResNet depth must be 6n+2, got {depth}")
    n = (depth - 2) // 6
    return ResNet((n, n, n), (16, 32, 64), "cifar", width_multiplier, rng=rng,
                  norm=norm)


def resnet74(width_multiplier: float = 1.0,
             rng: Optional[np.random.Generator] = None,
             norm: str = "batch") -> ResNet:
    """CIFAR-style ResNet-74 (6n+2 with n=12)."""
    return _cifar_deep(74, width_multiplier, rng, norm)


def resnet110(width_multiplier: float = 1.0,
              rng: Optional[np.random.Generator] = None,
              norm: str = "batch") -> ResNet:
    """CIFAR-style ResNet-110 (6n+2 with n=18)."""
    return _cifar_deep(110, width_multiplier, rng, norm)


def resnet152(width_multiplier: float = 1.0,
              rng: Optional[np.random.Generator] = None,
              norm: str = "batch") -> ResNet:
    """CIFAR-style ResNet-152 (6n+2 with n=25)."""
    return _cifar_deep(152, width_multiplier, rng, norm)
