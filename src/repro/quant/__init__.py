"""Quantization library: the paper's linear quantizer and model plumbing.

Implements Eq. 10 of the paper (dynamic-range linear quantization of weights
and activations), fake quantization with a straight-through estimator so
quantized forward passes remain trainable, precision sets for per-iteration
sampling, and precision-switchable ``QConv2d`` / ``QLinear`` modules.
Precision is applied through the scoped :class:`PrecisionContext`
(``with precision(model, bits): ...``), which also activates an optional
:class:`QuantCache` memoizing fake-quantized weights across same-step
forwards and a fused-view count for multi-view batching.

Deployment is a staged, torch-style pipeline:

1. :func:`prepare` — swap float layers for quantized twins (shared
   Parameters) and attach activation-range observers;
2. :func:`calibrate` — fit the observers on representative batches;
3. :func:`convert` — fold BatchNorm, freeze ranges, and lower to the true
   integer kernels of :mod:`repro.quant.lowered` (verified against the
   fake-quant reference and the AUD001 coverage audit).
"""

from .cache import QuantCache, active_cache, active_views, quant_execution_scope
from .calibrate import calibrate
from .context import PrecisionContext, apply_precision, precision
from .convert import (
    ConvertError,
    convert,
    count_quantized_modules,
    freeze_reference,
    prepare,
)
from .fake_quant import (
    fake_quantize,
    fake_quantize_per_channel,
    fake_quantize_per_view,
    fake_quantize_static,
)
from .fold import fold_batch_norm
from .lowered import IntConv2d, IntLinear, LoweredModule
from .observer import EmaMinMaxObserver, MinMaxObserver
from .precision_set import FULL_PRECISION, PrecisionSet
from .qmodules import QConv2d, QLinear, QuantizedModule
from .quantizer import (
    LearnableQuantizer,
    LinearQuantizer,
    integer_quantization_params,
    linear_quantize,
    linear_quantize_per_channel,
    linear_quantize_per_view,
    linear_quantize_static,
    quantize_to_int,
)
from .schedule import CyclicPrecisionSchedule, RandomPrecisionSampler

__all__ = [
    "linear_quantize",
    "linear_quantize_per_channel",
    "linear_quantize_per_view",
    "linear_quantize_static",
    "integer_quantization_params",
    "quantize_to_int",
    "LinearQuantizer",
    "LearnableQuantizer",
    "fake_quantize",
    "fake_quantize_per_channel",
    "fake_quantize_per_view",
    "fake_quantize_static",
    "MinMaxObserver",
    "EmaMinMaxObserver",
    "PrecisionSet",
    "FULL_PRECISION",
    "QuantizedModule",
    "QConv2d",
    "QLinear",
    "LoweredModule",
    "IntConv2d",
    "IntLinear",
    "prepare",
    "calibrate",
    "convert",
    "freeze_reference",
    "ConvertError",
    "fold_batch_norm",
    "apply_precision",
    "precision",
    "PrecisionContext",
    "QuantCache",
    "quant_execution_scope",
    "active_cache",
    "active_views",
    "count_quantized_modules",
    "CyclicPrecisionSchedule",
    "RandomPrecisionSampler",
]
