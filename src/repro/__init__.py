"""Contrastive Quant (DAC 2022) — full-system reproduction.

Quantization noise, applied at randomly sampled precisions to weights and
activations, is used as an *augmentation* for contrastive learning.  The
package layout:

- :mod:`repro.nn` — numpy autograd / layers / optimizers (substrate).
- :mod:`repro.quant` — the paper's linear quantizer (Eq. 10), fake-quant
  with a straight-through estimator, precision-switchable modules.
- :mod:`repro.models` — ResNet-18/34/74/110/152 and MobileNetV2 encoders.
- :mod:`repro.data` — synthetic dataset generators and augmentations.
- :mod:`repro.contrastive` — SimCLR, BYOL, and the CQ-A/B/C/Quant pipelines.
- :mod:`repro.eval` — fine-tuning, linear evaluation, detection transfer,
  and t-SNE harnesses.
- :mod:`repro.experiments` — per-table experiment configs and runners.
- :mod:`repro.telemetry` — metrics registry, op-level profiler, and the
  trainer event/callback protocol (JSONL run logs, throughput meters).
- :mod:`repro.serving` — embedding service over converted models:
  one-live-version registry, request micro-batching, load generator.
"""

__version__ = "1.0.0"

__all__ = [
    "nn",
    "quant",
    "models",
    "data",
    "contrastive",
    "eval",
    "experiments",
    "telemetry",
    "serving",
]
