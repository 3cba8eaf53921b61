"""Precision-switchable layers: quantized Conv2d and Linear.

Each module carries a mutable ``precision`` attribute (bit-width, or None
for full precision).  During Contrastive Quant training the precision is
applied around each forward with :class:`repro.quant.PrecisionContext`
(scoped; restores the previous bits on exit), which makes the same weights
produce differently-augmented features.

Both the weights and the input activations are fake-quantized at the
module's precision (Eq. 10 + straight-through estimator, one dynamic range
per tensor), matching the paper's "weights and activations" augmentation;
there is no weight-only mode.  The deployment pipeline switches two flags
on: ``frozen_range`` (calibrated activation range) and
``per_channel_weights`` (one weight range per output channel), the grids
the integer kernels use.  Weight quantization consults the active
:class:`~repro.quant.QuantCache` (if any) so repeated same-precision
forwards within one step reuse the memoized quantized weight; activation
quantization honours the active fused-view count so concatenated
multi-view batches quantize each view with its own dynamic range.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.autograd import is_grad_enabled
from ..nn.layers.conv import Conv2d
from ..nn.layers.linear import Linear
from ..nn.module import Parameter
from .cache import active_cache, active_views
from .fake_quant import (
    fake_quantize,
    fake_quantize_per_channel,
    fake_quantize_per_view,
    fake_quantize_static,
)

__all__ = ["QuantizedModule", "QConv2d", "QLinear"]


class QuantizedModule:
    """Mixin marking a module as precision-switchable.

    ``precision is None`` means full precision; an integer selects the
    bit-width used for both the weight and the incoming activation.

    Deployment plumbing (the staged ``prepare()/calibrate()/convert()``
    pipeline): :func:`repro.quant.prepare` attaches an
    ``activation_observer``; :func:`repro.quant.calibrate` switches
    ``observing`` on while it streams calibration batches through the
    model so the observer fits the input range; and setting
    ``frozen_range`` makes forwards quantize activations against that
    *fixed* calibrated range (clipping to its grid) instead of the
    per-call dynamic range — the exact semantics the lowered integer
    kernels implement, which is what makes the fake-quant model a
    reference oracle for :func:`repro.quant.convert`.
    """

    precision: Optional[int] = None
    #: quantize the weight with one dynamic range per output channel
    #: (the deployment grid ``freeze_reference()`` sets; training uses
    #: the paper's per-tensor range).
    per_channel_weights: bool = False
    #: range observer attached by ``prepare()`` (None on a twin built
    #: directly, which ``calibrate()`` rejects).
    activation_observer = None
    #: True only while ``calibrate()`` streams batches through the model.
    observing: bool = False
    #: quantize activations with the observer's frozen range (deployment
    #: semantics) instead of the per-call dynamic range.
    frozen_range: bool = False

    def set_precision(self, bits: Optional[int]) -> None:
        if bits is not None:
            bits = int(bits)
            if not 1 <= bits <= 32:
                raise ValueError(f"precision must be in [1, 32], got {bits}")
        self.precision = bits

    @property
    def calibrated(self) -> bool:
        """True once the activation observer holds a fitted range."""
        obs = self.activation_observer
        return obs is not None and obs.min is not None

    @property
    def activation_range(self) -> Optional[tuple]:
        """The calibrated ``(lo, hi)`` input range, or None."""
        if not self.calibrated:
            return None
        return (float(self.activation_observer.min),
                float(self.activation_observer.max))

    def _quantize_input(self, x):
        if self.precision is None:
            return x
        if self.observing and self.activation_observer is not None:
            self.activation_observer.update(np.asarray(x.data))
        if self.frozen_range and self.calibrated:
            lo, hi = self.activation_range
            return fake_quantize_static(x, self.precision, lo, hi)
        views = active_views()
        if views > 1:
            return fake_quantize_per_view(x, self.precision, views)
        return fake_quantize(x, self.precision)

    def _quantize_weight(self, weight):
        if self.precision is None:
            return weight
        cache = active_cache()
        if cache is not None and isinstance(weight, Parameter):
            return cache.fetch(
                weight,
                self.precision,
                self.per_channel_weights,
                is_grad_enabled(),
                lambda: self._compute_quantized_weight(weight),
            )
        return self._compute_quantized_weight(weight)

    def _compute_quantized_weight(self, weight):
        if self.per_channel_weights:
            return fake_quantize_per_channel(weight, self.precision, axis=0)
        return fake_quantize(weight, self.precision)


class QConv2d(Conv2d, QuantizedModule):
    """Conv2d whose weight and input are quantized to ``self.precision``."""

    def __init__(self, *args, precision: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.precision = precision

    @classmethod
    def from_float(cls, conv: Conv2d) -> "QConv2d":
        """Wrap an existing Conv2d, sharing its Parameter objects."""
        from ..nn.module import Module

        q = cls.__new__(cls)
        Module.__init__(q)
        q.in_channels = conv.in_channels
        q.out_channels = conv.out_channels
        q.kernel_size = conv.kernel_size
        q.stride = conv.stride
        q.padding = conv.padding
        q.groups = conv.groups
        q.weight = conv.weight  # shared Parameter: training updates both views
        q.bias = conv.bias
        q.precision = None
        return q

    def forward(self, x):
        from ..nn import functional as F

        x = self._quantize_input(x)
        weight = self._quantize_weight(self.weight)
        return F.conv2d(
            x,
            weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            groups=self.groups,
        )

    def __repr__(self) -> str:
        return (
            f"QConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, precision={self.precision})"
        )


class QLinear(Linear, QuantizedModule):
    """Linear whose weight and input are quantized to ``self.precision``."""

    def __init__(self, *args, precision: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.precision = precision

    @classmethod
    def from_float(cls, linear: Linear) -> "QLinear":
        """Wrap an existing Linear, sharing its Parameter objects."""
        from ..nn.module import Module

        q = cls.__new__(cls)
        Module.__init__(q)
        q.in_features = linear.in_features
        q.out_features = linear.out_features
        q.weight = linear.weight
        q.bias = linear.bias
        q.precision = None
        return q

    def forward(self, x):
        from ..nn import functional as F

        x = self._quantize_input(x)
        weight = self._quantize_weight(self.weight)
        return F.linear(x, weight, self.bias)

    def __repr__(self) -> str:
        return (
            f"QLinear(in_features={self.in_features}, "
            f"out_features={self.out_features}, precision={self.precision})"
        )
