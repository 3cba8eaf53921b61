"""The traced step graph: op records and the leaf-reference taxonomy.

A :class:`Graph` is what the tracer produces from one eager step: an
ordered list of :class:`Record` entries (one per ``Function.apply`` call,
in execution order) whose inputs are resolved to *references* instead of
concrete arrays.  The reference kind determines what a replay reads:

=============  ==========================================================
``SlotRef``    output of an earlier record — read the slot filled this
               replay (graph edge).
``DataRef``    a leaf tensor that *aliases* a record output's array
               (``Tensor.detach()`` shares storage) — read the slot's
               current array so stop-gradient branches track the step.
``ParamRef``   a :class:`~repro.nn.module.Parameter` — re-read
               ``param.data`` every replay, so optimizer steps and
               ``load_state_dict`` need no retrace.
``InputRef``   a per-step input (the batch views) — rebound on every
               replay.
``ConstRef``   a genuine trace-time constant (masks, eye matrices whose
               values depend only on static shapes).
``SymbolRef``  a symbolic kwarg value (the sampled precision bits) —
               substituted from the replay's symbol bindings.
=============  ==========================================================

Anything that fits none of these (a tensor carrying a foreign autograd
graph, or a non-Parameter trainable leaf) raises :class:`TraceError`,
which the engine converts into a clean eager fallback.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "TraceError",
    "SlotRef",
    "DataRef",
    "ParamRef",
    "InputRef",
    "ConstRef",
    "SymbolRef",
    "Record",
    "Graph",
]


class TraceError(RuntimeError):
    """A step could not be traced; the engine falls back to eager."""


class SlotRef:
    """Reference to the output of record ``index`` (a graph edge)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"SlotRef({self.index})"


class DataRef:
    """A leaf tensor whose array aliases slot ``index``'s output array."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"DataRef({self.index})"


class ParamRef:
    """A Parameter leaf; replays re-read ``param.data``."""

    __slots__ = ("param",)

    def __init__(self, param: Any) -> None:
        self.param = param

    def __repr__(self) -> str:
        return f"ParamRef(shape={tuple(self.param.data.shape)})"


class InputRef:
    """A named per-step input, rebound on every replay."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"InputRef({self.name!r})"


class ConstRef:
    """A trace-time constant array (depends only on static shapes)."""

    __slots__ = ("array",)

    def __init__(self, array: Any) -> None:
        self.array = array

    def __repr__(self) -> str:
        return f"ConstRef(shape={getattr(self.array, 'shape', ())})"


class SymbolRef:
    """A symbolic kwarg value bound per replay (e.g. precision bits)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"SymbolRef({self.name!r})"


class Record:
    """One traced ``Function.apply`` call.

    ``ctx`` is the live Function instance created during the traced step;
    replays re-run ``ctx.forward`` (overwriting its saved state) and, for
    grad-carrying nodes, the op class's ``backward`` on ``ctx`` in the
    captured schedule.  Compilation sets ``ctx.parents`` to ``()``, and a
    training plan releases the rest of ``ctx``'s saved state
    (:meth:`Function.release`) whenever no backward is pending, so
    between replays ``ctx`` holds only ``needs_input_grad``.

    ``out`` is the Tensor produced during the trace.  Compilation reads
    it to find the root's slot, then sets it to ``None``: no replay reads
    the traced step's arrays.
    """

    __slots__ = ("op", "ctx", "args", "kwargs", "out")

    def __init__(self, op, ctx, args, kwargs, out) -> None:
        self.op = op
        self.ctx = ctx
        self.args: Tuple[Any, ...] = args
        self.kwargs: Dict[str, Any] = kwargs
        self.out = out

    def __repr__(self) -> str:
        return f"Record({self.op.__name__}, args={self.args})"


class Graph:
    """Ordered op records plus the tensors that anchor compilation."""

    def __init__(
        self,
        records: List[Record],
        root,
        outputs: Dict[str, Any],
        input_names: Tuple[str, ...],
        symbols: Tuple[str, ...],
    ) -> None:
        self.records = records
        self.root = root  # loss Tensor (must be a record output)
        self.outputs = outputs  # name -> SlotRef for extra taps
        self.input_names = input_names
        self.symbols = symbols

    def __len__(self) -> int:
        return len(self.records)

    def slot_of(self, tensor) -> Optional[int]:
        for i, record in enumerate(self.records):
            if record.out is tensor:
                return i
        return None

    def __repr__(self) -> str:
        return f"Graph({len(self.records)} records, {len(self.outputs)} outputs)"
