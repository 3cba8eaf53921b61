"""Stage 2 of the staged quantization API: observer-range calibration.

``prepare()`` attaches a range observer to every quantized module;
``calibrate()`` streams representative batches through the model in eval
mode with observation switched on, so each observer fits the min/max of
the *pre-quantization* input its module sees.  ``convert()`` then freezes
those ranges into the integer kernels' activation grids.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..nn.autograd import no_grad
from ..nn.module import Module
from ..nn.tensor import Tensor
from .context import apply_precision
from .qmodules import QuantizedModule

__all__ = ["calibrate"]


def _to_input_tensor(batch) -> Tensor:
    """Accept ``x``, ``(x, y)``, or ``(x, ...)`` batches, arrays or Tensors."""
    x = batch[0] if isinstance(batch, (tuple, list)) else batch
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def calibrate(
    model: Module,
    batches: Iterable,
    bits: Optional[int] = None,
) -> Dict[str, Tuple[float, float]]:
    """Fit activation-range observers by running calibration batches.

    Parameters
    ----------
    model:
        A model that went through :func:`repro.quant.prepare`.
    batches:
        Iterable of inputs — bare arrays/Tensors or ``(x, y)`` pairs (a
        :class:`repro.data.DataLoader` works as-is).
    bits:
        Optional precision applied to the whole model first (persistently,
        via :func:`repro.quant.apply_precision`).  When omitted, every
        quantized module must already carry a precision.

    Returns the mapping of module path to fitted ``(lo, hi)`` range.
    Forwards run in eval mode under ``no_grad``; the previous training
    mode is restored afterwards.
    """
    qmods = [
        (path, m)
        for path, m in model.named_modules()
        if isinstance(m, QuantizedModule)
    ]
    if not qmods:
        raise ValueError(
            "calibrate() found no quantized modules; run prepare(model) first"
        )
    if bits is not None:
        apply_precision(model, bits)
    missing = [path for path, m in qmods if m.precision is None]
    if missing:
        raise ValueError(
            f"modules without a precision: {missing}; pass bits= or use "
            f"repro.quant.apply_precision() before calibrating"
        )
    unobserved = [path for path, m in qmods if m.activation_observer is None]
    if unobserved:
        raise ValueError(
            f"modules without an activation observer: {unobserved}; "
            f"prepare() attaches one — re-run it or set one explicitly"
        )

    for _, m in qmods:
        m.activation_observer.reset()
        m.observing = True
    was_training = model.training
    model.eval()
    consumed = 0
    try:
        with no_grad():
            for batch in batches:
                model(_to_input_tensor(batch))
                consumed += 1
    finally:
        for _, m in qmods:
            m.observing = False
        if was_training:
            model.train()
    if consumed == 0:
        raise ValueError("calibrate() received no batches")
    return {
        path: m.activation_range
        for path, m in qmods
        if m.activation_range is not None
    }
