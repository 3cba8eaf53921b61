"""Functional fake-quantization entry point."""

from __future__ import annotations

from typing import Optional

from ..nn.tensor import Tensor, as_tensor
from .quantizer import (
    _FakeQuantPerChannelSTE,
    _FakeQuantPerViewSTE,
    _FakeQuantSTE,
    _FakeQuantStaticSTE,
)

__all__ = [
    "fake_quantize",
    "fake_quantize_per_channel",
    "fake_quantize_per_view",
    "fake_quantize_static",
]


def fake_quantize(tensor: Tensor, bits: Optional[int]) -> Tensor:
    """Fake-quantize ``tensor`` to ``bits`` with the paper's Eq. 10 + STE.

    ``bits=None`` means full precision (identity).  The quantized values are
    used in the forward pass; gradients flow straight through, which is what
    lets quantization act as a *trainable* augmentation on weights and
    activations.
    """
    if bits is None:
        return as_tensor(tensor)
    return _FakeQuantSTE.apply(as_tensor(tensor), bits=bits)


def fake_quantize_static(
    tensor: Tensor, bits: Optional[int], a_min: float, a_max: float
) -> Tensor:
    """Fake-quantize over a *frozen* calibrated range, clipping to its grid.

    The deployment-reference twin of the integer engine
    (:mod:`repro.quant.lowered`): dequantized values are bit-for-bit the
    codes the integer kernels compute, so a frozen-range fake-quant
    forward is the float oracle that ``convert()`` checks lowered models
    against.
    """
    if bits is None:
        return as_tensor(tensor)
    return _FakeQuantStaticSTE.apply(as_tensor(tensor), bits=bits,
                                     a_min=a_min, a_max=a_max)


def fake_quantize_per_channel(
    tensor: Tensor, bits: Optional[int], axis: int = 0
) -> Tensor:
    """Per-channel fake quantization with STE (extension; see quantizer)."""
    if bits is None:
        return as_tensor(tensor)
    return _FakeQuantPerChannelSTE.apply(as_tensor(tensor), bits=bits,
                                         axis=axis)


def fake_quantize_per_view(
    tensor: Tensor, bits: Optional[int], views: int
) -> Tensor:
    """Fake-quantize each of ``views`` equal batch chunks independently.

    Used by fused multi-view forwards so a concatenated 2N batch produces
    exactly the activations of two separate N-batch forwards.
    """
    if bits is None:
        return as_tensor(tensor)
    return _FakeQuantPerViewSTE.apply(as_tensor(tensor), bits=bits,
                                      views=views)
