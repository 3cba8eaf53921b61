"""Recording one eager step into a :class:`~repro.engine.graph.Graph`.

The tracer piggybacks on a *real* eager step: ``Function.apply`` calls
:meth:`Tracer.record` for every op while the step executes normally, so
the step's results (loss value, gradients, metrics, RNG draws) are the
eager ones regardless of whether tracing succeeds.  Classification
failures therefore never abort the step — they poison the tracer, and
:meth:`Tracer.finalize` raises :class:`TraceError` afterwards, which the
engine converts into a fallback decision.

Symbolic kwargs: only kwargs literally named ``"bits"`` participate in
symbolic substitution.  A ``bits`` value equal to one of the tracer's
symbol bindings is recorded as a :class:`SymbolRef` and re-bound on every
replay; every other kwarg is captured literally.  (Restricting the match
to ``bits`` keeps unrelated integer kwargs — ``views=2``, ``axis=2`` —
from colliding with a sampled precision of the same value.)
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..nn import autograd
from ..nn.module import Parameter
from ..nn.tensor import Tensor
from .graph import (
    ConstRef,
    DataRef,
    Graph,
    InputRef,
    ParamRef,
    Record,
    SlotRef,
    SymbolRef,
    TraceError,
)

__all__ = ["Tracer", "tracing"]


class Tracer:
    """Collects op records during one eager step.

    Parameters
    ----------
    inputs:
        Mapping of replay-input name to the Tensor that carries it during
        the traced step (the batch views).  These become :class:`InputRef`
        leaves, rebound per replay.
    symbols:
        Mapping of symbol name to its trace-time value (the sampled
        precision bits).  ``bits=`` kwargs matching a value are recorded
        symbolically; ties resolve to the first symbol in mapping order.
    """

    def __init__(
        self,
        inputs: Optional[Mapping[str, Tensor]] = None,
        symbols: Optional[Mapping[str, int]] = None,
    ) -> None:
        self._records: list = []
        self._slots: Dict[int, int] = {}  # id(out Tensor) -> record index
        self._data_slots: Dict[int, int] = {}  # id(out.data) -> record index
        self._inputs: Dict[int, str] = {}  # id(input Tensor) -> name
        self._input_data: Dict[int, str] = {}  # id(input .data) -> name
        self._input_names: Tuple[str, ...] = ()
        self._symbols: Dict[str, int] = dict(symbols or {})
        self._error: Optional[TraceError] = None
        # Leaf tensors whose ids we have classified; held so CPython
        # cannot recycle an id mid-trace and alias a fresh tensor.
        self._keepalive: list = []
        if inputs:
            names = []
            for name, tensor in inputs.items():
                if not isinstance(tensor, Tensor):
                    raise TypeError(f"input {name!r} must be a Tensor")
                self._inputs[id(tensor)] = name
                self._input_data[id(tensor.data)] = name
                self._keepalive.append(tensor)
                names.append(name)
            self._input_names = tuple(names)

    # -- recording ---------------------------------------------------------
    def record(self, op, ctx, inputs, kwargs, out) -> None:
        """Called by ``Function.apply`` for every op of the traced step."""
        if self._error is not None:
            return
        try:
            args = tuple(self._classify(x) for x in inputs)
            kw = self._classify_kwargs(kwargs)
        except TraceError as exc:
            self._error = exc
            return
        index = len(self._records)
        self._records.append(Record(op, ctx, args, kw, out))
        self._slots[id(out)] = index
        self._data_slots[id(out.data)] = index

    def _classify(self, value: Any) -> Any:
        if isinstance(value, Tensor):
            slot = self._slots.get(id(value))
            if slot is not None:
                return SlotRef(slot)
            name = self._inputs.get(id(value))
            if name is not None:
                return InputRef(name)
            if isinstance(value, Parameter):
                return ParamRef(value)
            # detach() shares the ndarray object with its source tensor,
            # so a leaf whose array IS a slot output tracks that slot.
            slot = self._data_slots.get(id(value.data))
            if slot is not None and value._ctx is None:
                self._keepalive.append(value)
                return DataRef(slot)
            name = self._input_data.get(id(value.data))
            if name is not None and value._ctx is None:
                self._keepalive.append(value)
                return InputRef(name)
            if value._ctx is not None:
                raise TraceError(
                    "leaf tensor carries a foreign autograd graph "
                    f"(op output of {type(value._ctx).__name__})"
                )
            if value.requires_grad:
                raise TraceError(
                    "trainable leaf tensor is not a Parameter; cannot "
                    "rebind it across replays"
                )
            self._keepalive.append(value)
            return ConstRef(np.array(value.data, copy=True))
        if isinstance(value, np.ndarray):
            return ConstRef(np.array(value, copy=True))
        # Plain scalar (float/int/None) — captured literally.
        return value

    def _classify_kwargs(self, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for key, value in kwargs.items():
            if key == "bits" and self._symbols:
                matched = None
                for name, bound in self._symbols.items():
                    if bound == value:
                        matched = name
                        break
                if matched is not None:
                    out[key] = SymbolRef(matched)
                    continue
            if isinstance(value, Tensor):
                raise TraceError(f"Tensor-valued kwarg {key!r} is untraceable")
            if isinstance(value, np.ndarray):
                out[key] = np.array(value, copy=True)
            else:
                out[key] = value
        return out

    def fail(self, reason: str) -> None:
        """Poison the trace from outside the tape: ``finalize`` raises.

        For computations that bypass ``Function.apply`` yet feed traced
        ops — their outputs would otherwise be recorded as constants and
        replayed stale.
        """
        if self._error is None:
            self._error = TraceError(reason)

    # -- finishing ---------------------------------------------------------
    @property
    def failed(self) -> Optional[TraceError]:
        return self._error

    def finalize(
        self,
        root: Tensor,
        outputs: Optional[Mapping[str, Tensor]] = None,
    ) -> Graph:
        """Seal the trace into a Graph, or raise :class:`TraceError`."""
        if self._error is not None:
            raise self._error
        if not self._records:
            raise TraceError(
                "no ops were traced (model runs outside the autograd tape)"
            )
        root_slot = self._slots.get(id(root))
        if root_slot is None:
            raise TraceError("root tensor is not the output of a traced op")
        resolved: Dict[str, SlotRef] = {}
        for name, tensor in (outputs or {}).items():
            slot = self._slots.get(id(tensor))
            if slot is None:
                raise TraceError(
                    f"output tap {name!r} is not the output of a traced op"
                )
            resolved[name] = SlotRef(slot)
        return Graph(
            records=self._records,
            root=root,
            outputs=resolved,
            input_names=self._input_names,
            symbols=tuple(self._symbols),
        )


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install ``tracer`` for the current thread while the block runs."""
    if autograd._active_tracer() is not None:
        raise TraceError("a trace is already active on this thread")
    autograd._set_tracer(tracer)
    try:
        yield tracer
    finally:
        autograd._set_tracer(None)
