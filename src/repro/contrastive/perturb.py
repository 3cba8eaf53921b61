"""Gaussian weight-perturbation augmentation (the paper's future work).

Sec. 4.2 ("Insights") proposes exploring *other* weight/activation
perturbations beyond quantization.  This module implements the most
natural candidate — zero-mean Gaussian noise injected into the encoder's
weights, at a per-iteration sampled noise level — inside the same CQ-C
style loss assembly, so quantization-as-augmentation can be compared
against noise-as-augmentation under identical conditions
(``benchmarks/test_ablation_perturbation.py``).
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Union

import numpy as np

from ..nn.module import Module
from ..nn.optim import Optimizer
from ..nn.rng import ensure_rng
from ..nn.tensor import Tensor
from .base import TrainerBase
from .losses import nt_xent
from .simclr import SimCLRModel

__all__ = ["GaussianWeightNoise", "NoiseContrastiveTrainer"]


class GaussianWeightNoise:
    """Temporarily add N(0, (std * |w|_rms)^2) noise to a module's weights.

    Noise is scaled by each parameter's RMS so one ``std`` level means the
    same *relative* perturbation for every layer — mirroring how dynamic-
    range quantization scales its step to each tensor.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    @contextlib.contextmanager
    def applied(self, module: Module, std: float):
        if std < 0:
            raise ValueError(f"noise std must be non-negative, got {std}")
        originals: List[np.ndarray] = []
        params = list(module.parameters())
        for param in params:
            originals.append(param.data)
            if std > 0:
                rms = float(np.sqrt(np.mean(param.data.astype(np.float64) ** 2)))
                noise = self.rng.normal(0.0, std * max(rms, 1e-8),
                                        size=param.data.shape)
                param.data = (param.data + noise).astype(param.data.dtype)
        try:
            yield
        finally:
            for param, original in zip(params, originals):
                param.data = original


class NoiseContrastiveTrainer(TrainerBase):
    """CQ-C loss assembly with Gaussian weight noise instead of quantization.

    Each iteration samples two noise levels ``(s1, s2)`` from ``noise_set``
    and enforces (1) view consistency at each level and (2) cross-level
    consistency within each view — the direct analogue of Eq. 9.
    """

    def __init__(
        self,
        model: SimCLRModel,
        noise_set: Sequence[float],
        optimizer: Optimizer,
        rng: Optional[np.random.Generator] = None,
        temperature: float = 0.5,
    ) -> None:
        if not isinstance(model, SimCLRModel):
            raise TypeError(
                f"model must be a SimCLRModel, got {type(model).__name__}"
            )
        levels = sorted(float(s) for s in noise_set)
        if not levels:
            raise ValueError("noise_set must not be empty")
        if levels[0] < 0:
            raise ValueError(f"noise levels must be >= 0, got {levels[0]}")
        self.model = model
        self.noise_set = levels
        self.optimizer = optimizer
        self.rng = ensure_rng(rng)
        self.temperature = temperature
        self.injector = GaussianWeightNoise(self.rng)
        self._init_telemetry()

    def _sample_levels(self):
        picks = self.rng.choice(len(self.noise_set), size=2)
        return self.noise_set[picks[0]], self.noise_set[picks[1]]

    def _project(self, x: Tensor, std: float) -> Tensor:
        with self.injector.applied(self.model.encoder, std):
            return self.model(x)

    def compute_loss(self, view1: np.ndarray, view2: np.ndarray) -> Tensor:
        s1, s2 = self._sample_levels()
        v1, v2 = Tensor(view1), Tensor(view2)
        f1 = self._project(v1, s1)
        f1_pos = self._project(v2, s1)
        f2 = self._project(v1, s2)
        f2_pos = self._project(v2, s2)
        return (
            nt_xent(f1, f1_pos, self.temperature)
            + nt_xent(f2, f2_pos, self.temperature)
            + nt_xent(f1, f2, self.temperature)
            + nt_xent(f1_pos, f2_pos, self.temperature)
        )
