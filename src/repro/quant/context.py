"""Scoped precision application: the primary API for switching bit-widths.

Historically precision was applied by mutating every quantized module in
place with a module-level ``set_precision`` and hoping every caller
remembered to restore it.  :class:`PrecisionContext` makes the switch
*scoped*: on entry it records each quantized module's current precision and
applies the requested bits; on exit it restores exactly what was there
before, so nested and interleaved precision regions compose::

    with precision(encoder, 4):
        f = encoder(x)          # 4-bit weights + activations
    # encoder back at its previous precision here

A context may also carry a :class:`~repro.quant.QuantCache` and a fused
``views`` count, which the quantized modules pick up through the
thread-local execution scope (see :mod:`repro.quant.cache`).
"""

from __future__ import annotations

from typing import Optional

from ..nn.module import Module
from .cache import QuantCache, quant_execution_scope
from .qmodules import QuantizedModule

__all__ = ["PrecisionContext", "precision", "apply_precision"]


def apply_precision(
    model: Module, bits: Optional[int], strict: bool = True
) -> int:
    """Imperatively set the precision of every quantized module.

    Returns how many modules were switched.  ``bits=None`` restores full
    precision.  With ``strict`` (default), raises if the model contains no
    quantized modules — calling this on an unconverted model is a bug.
    Prefer :class:`PrecisionContext` where the precision has a natural
    scope; use this only for open-ended switches (e.g. leaving an encoder
    at full precision after training).
    """
    count = 0
    for module in model.modules():
        if isinstance(module, QuantizedModule):
            module.set_precision(bits)
            count += 1
    if count == 0 and strict:
        raise ValueError(
            "apply_precision() found no quantized modules; "
            "run prepare() first"
        )
    return count


class PrecisionContext:
    """Apply ``bits`` to ``model`` for the duration of a ``with`` block.

    Parameters
    ----------
    model:
        Module tree containing quantized modules.  Raises on entry if it
        has none and ``bits`` is not None (mirroring ``apply_precision``).
    bits:
        Bit-width, or None for full precision.
    cache:
        Optional :class:`QuantCache` memoizing fake-quantized weights for
        forwards inside the block.
    views:
        Number of equal view-chunks concatenated along the batch axis of
        inputs forwarded inside the block; activations are fake-quantized
        per chunk so fused forwards match unfused ones exactly.

    Re-entrant: the same context object may be nested or reused.
    """

    def __init__(
        self,
        model: Module,
        bits: Optional[int],
        *,
        cache: Optional[QuantCache] = None,
        views: int = 1,
    ) -> None:
        if views < 1:
            raise ValueError(f"views must be >= 1, got {views}")
        self.model = model
        self.bits = bits
        self.cache = cache
        self.views = views
        self._saved = []  # stack of (module -> previous precision) frames
        self._scopes = []

    def __enter__(self) -> "PrecisionContext":
        frame = [
            (m, m.precision)
            for m in self.model.modules()
            if isinstance(m, QuantizedModule)
        ]
        if not frame and self.bits is not None:
            raise ValueError(
                "PrecisionContext found no quantized modules; "
                "run prepare() first"
            )
        for module, _ in frame:
            module.set_precision(self.bits)
        self._saved.append(frame)
        scope = quant_execution_scope(self.cache, self.views)
        scope.__enter__()
        self._scopes.append(scope)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._scopes.pop().__exit__(exc_type, exc, tb)
        for module, previous in self._saved.pop():
            module.set_precision(previous)


def precision(
    model: Module,
    bits: Optional[int],
    *,
    cache: Optional[QuantCache] = None,
    views: int = 1,
) -> PrecisionContext:
    """Sugar for ``PrecisionContext(model, bits, ...)``::

        with precision(encoder, q1, cache=cache, views=2):
            fused = encoder(both_views)
    """
    return PrecisionContext(model, bits, cache=cache, views=views)
