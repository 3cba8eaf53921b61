"""Compiling a traced :class:`Graph` into a replayable :class:`Plan`.

A plan is a scheduler with no arithmetic of its own.  Compilation has
two stages:

1. **Fusion** — single-consumer ``add→relu`` pairs (the residual join
   and activation of every ResNet block) collapse into one
   :class:`~repro.nn._ops.fused.FusedAddRelu` node.  Its forward and
   backward run the exact constituent arithmetic in the original order,
   so bytes are preserved; fusion only removes dispatch and an
   intermediate Tensor.  Normalization layers are one op each already
   (:mod:`repro.nn._ops.norm`).
2. **Schedule compilation** — the forward becomes a flat list of
   zero-argument closures, each re-running one record's own
   ``ctx.forward``; the backward becomes a precompiled entry list of
   ``ctx.backward`` calls that mirrors ``repro.nn.autograd.backward``'s
   reverse-topological walk and its exact accumulation order
   (``existing + new``), minus the per-step graph walk and validation.

Replay and eager therefore run one kernel per op, so they match byte
for byte by construction.  Every replay allocates its outputs afresh,
so arrays handed out by one replay are never written by the next.  Any
compilation surprise raises :class:`PlanError` (a :class:`TraceError`),
which the engine converts into a permanent eager fallback for that
signature.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..nn._ops import elementwise as _ew
from ..nn._ops.fused import FusedAddRelu
from ..nn.autograd import _topological_order
from ..nn.module import Parameter
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

__all__ = [
    "Plan",
    "PlanError",
    "ReplayResult",
    "compile_plan",
]


class PlanError(TraceError):
    """A graph traced fine but could not be compiled."""


class ReplayResult:
    """Arrays produced by one replay.

    ``root`` and ``outputs`` are this replay's own arrays; later replays
    do not write into them.
    """

    __slots__ = ("root", "outputs")

    def __init__(self, root: np.ndarray, outputs: Dict[str, np.ndarray]):
        self.root = root
        self.outputs = outputs


# ---------------------------------------------------------------------------
# fusion pass
# ---------------------------------------------------------------------------


def _ref_slots(record: Record):
    for ref in record.args:
        if isinstance(ref, (SlotRef, DataRef)):
            yield ref
    for ref in record.kwargs.values():
        if isinstance(ref, (SlotRef, DataRef)):
            yield ref


def _single_consumer_map(
    records: List[Record], protected: Set[int]
) -> Dict[int, int]:
    """Map slot -> index of its sole SlotRef consumer, when fusable."""
    uses: Dict[int, List[Tuple[int, Any]]] = {}
    for i, record in enumerate(records):
        for ref in _ref_slots(record):
            uses.setdefault(ref.index, []).append((i, ref))
    sole: Dict[int, int] = {}
    for slot, refs in uses.items():
        if slot in protected or len(refs) != 1:
            continue
        consumer, ref = refs[0]
        if isinstance(ref, SlotRef):
            sole[slot] = consumer
    return sole


def _remap_ref(ref: Any, old_to_new: Dict[int, int]) -> Any:
    if isinstance(ref, SlotRef):
        return SlotRef(old_to_new[ref.index])
    if isinstance(ref, DataRef):
        return DataRef(old_to_new[ref.index])
    return ref


def _rewrite(records, fusions, dropped, root_slot, output_slots):
    """Apply fusion decisions, re-indexing every slot reference."""
    old_to_new: Dict[int, int] = {}
    new_records: List[Record] = []
    for i, record in enumerate(records):
        if i in dropped:
            continue
        if i in fusions:
            record = fusions[i]
        old_to_new[i] = len(new_records)
        new_records.append(record)
    for record in new_records:
        record.args = tuple(_remap_ref(r, old_to_new) for r in record.args)
        record.kwargs = {
            k: _remap_ref(v, old_to_new) for k, v in record.kwargs.items()
        }
    new_outputs = {k: old_to_new[v] for k, v in output_slots.items()}
    return new_records, old_to_new[root_slot], new_outputs


def _make_fused(op_cls, ctx_state, parents_source, args, out):
    ctx = op_cls()
    for key, value in ctx_state.items():
        setattr(ctx, key, value)
    if parents_source is not None:
        ctx.parents = parents_source[0]
        ctx.needs_input_grad = parents_source[1]
        out._ctx = ctx
    return Record(op_cls, ctx, tuple(args), {}, out, out._ctx is not None)


def _fuse_records(records, root_slot, output_slots):
    """Fuse single-consumer ``add → relu`` pairs; re-index the records."""
    protected = {root_slot} | set(output_slots.values())
    sole = _single_consumer_map(records, protected)
    fusions: Dict[int, Record] = {}
    dropped: Set[int] = set()
    for i, record in enumerate(records):
        if record.op is not _ew.Relu:
            continue
        if not isinstance(record.args[0], SlotRef):
            continue
        j = record.args[0].index
        inner = records[j]
        if sole.get(j) != i or inner.op is not _ew.Add or len(inner.args) != 2:
            continue
        grad = record.requires_grad
        if inner.requires_grad != grad:
            continue
        state = {
            "a_shape": inner.ctx.a_shape,
            "b_shape": inner.ctx.b_shape,
            "mask": record.ctx.mask,
        }
        parents = (
            (inner.ctx.parents, inner.ctx.needs_input_grad) if grad else None
        )
        fusions[i] = _make_fused(
            FusedAddRelu, state, parents, inner.args, record.out
        )
        dropped.add(j)
    if not fusions:
        return records, root_slot, output_slots
    return _rewrite(records, fusions, dropped, root_slot, output_slots)


# ---------------------------------------------------------------------------
# forward steps
# ---------------------------------------------------------------------------


def _fetcher(ref, slots, inbox):
    """A closure reading one positional argument's value for this replay."""
    if isinstance(ref, (SlotRef, DataRef)):
        j = ref.index
        return lambda: slots[j]
    if isinstance(ref, ParamRef):
        p = ref.param
        return lambda: p.data
    if isinstance(ref, InputRef):
        name = ref.name
        return lambda: inbox[name]
    if isinstance(ref, ConstRef):
        arr = ref.array
        return lambda: arr
    value = ref
    return lambda: value


def _forward_step(record, index, slots, fetchers, symbox):
    """A closure that re-runs ``record.ctx.forward`` into ``slots[index]``.

    Keyword arguments are trace-time literals, bound once here, except
    symbolic ``bits=`` values, which are read from ``symbox`` per replay.
    """
    fwd = record.ctx.forward
    consts: Dict[str, Any] = {}
    symbolic: List[Tuple[str, str]] = []
    for key, value in record.kwargs.items():
        if isinstance(value, SymbolRef):
            symbolic.append((key, value.name))
        else:
            consts[key] = value
    if symbolic:
        def step():
            kwargs = dict(consts)
            for key, name in symbolic:
                kwargs[key] = symbox[name]
            slots[index] = fwd(*[f() for f in fetchers], **kwargs)
        return step
    if consts:
        def step():
            slots[index] = fwd(*[f() for f in fetchers], **consts)
        return step
    if len(fetchers) == 1:
        (fa,) = fetchers
        def step():
            slots[index] = fwd(fa())
        return step
    if len(fetchers) == 2:
        fa, fb = fetchers
        def step():
            slots[index] = fwd(fa(), fb())
        return step
    def step():
        slots[index] = fwd(*[f() for f in fetchers])
    return step


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


class Plan:
    """A compiled, replayable step.

    Training plans (``training=True``) run the precompiled backward on
    every replay, accumulating into ``Parameter.grad`` exactly as the
    eager engine does.  Inference plans validate parameter versions via
    :meth:`stale` so weight updates force a retrace (the spec'd
    invalidation rule).
    """

    def __init__(self, graph: Graph, training: bool, fuse: bool = True) -> None:
        self.training = training
        records = list(graph.records)
        root_slot = graph.slot_of(graph.root)
        if root_slot is None:
            raise PlanError("root is not a traced op output")
        output_slots = {k: ref.index for k, ref in graph.outputs.items()}
        if fuse:
            records, root_slot, output_slots = _fuse_records(
                records, root_slot, output_slots
            )
        self.records = records
        self.fused = fuse
        self._root_slot = root_slot
        self._output_slots = output_slots
        self._input_names = graph.input_names
        self.symbols = graph.symbols

        self._slots: List[Any] = [None] * len(records)
        self._inbox: Dict[str, np.ndarray] = {}
        self._symbox: Dict[str, int] = {}

        self._compile_forward()
        self._version_guard: Tuple[Tuple[Any, int], ...] = ()
        if training:
            self._compile_backward(graph.root)
        else:
            params = []
            seen: Set[int] = set()
            for record in records:
                for ref in record.args:
                    if isinstance(ref, ParamRef) and id(ref.param) not in seen:
                        seen.add(id(ref.param))
                        params.append(ref.param)
            self._version_guard = tuple((p, p.version) for p in params)

    # -- compilation ------------------------------------------------------
    def _compile_forward(self) -> None:
        slots = self._slots
        steps: List[Callable[[], None]] = []
        for i, record in enumerate(self.records):
            fetchers = tuple(
                _fetcher(r, slots, self._inbox) for r in record.args
            )
            steps.append(
                _forward_step(record, i, slots, fetchers, self._symbox)
            )
        self._steps = steps

    def _compile_backward(self, root) -> None:
        order = _topological_order(root)
        gids = {id(t): k for k, t in enumerate(order)}
        self._num_gids = len(order)
        self._root_gid = gids[id(root)]
        entries: List[Tuple] = []
        for node in reversed(order):
            gid = gids[id(node)]
            ctx = node._ctx
            if ctx is None:
                if node.requires_grad:
                    if not isinstance(node, Parameter):
                        raise PlanError(
                            "trainable non-Parameter leaf in backward graph"
                        )
                    entries.append(("leaf", gid, node))
                continue
            parent_gids = tuple(gids[id(p)] for p in ctx.parents)
            entries.append(
                ("op", gid, ctx.backward, parent_gids, ctx.needs_input_grad)
            )
        self._backward_entries = entries

    # -- validity ---------------------------------------------------------
    def stale(self) -> bool:
        """True when a guarded Parameter's version moved (inference)."""
        for param, version in self._version_guard:
            if param.version != version:
                return True
        return False

    # -- execution --------------------------------------------------------
    def replay(
        self,
        inputs: Dict[str, np.ndarray],
        symbols: Optional[Dict[str, int]] = None,
    ) -> ReplayResult:
        inbox = self._inbox
        for name in self._input_names:
            inbox[name] = inputs[name]
        if symbols:
            self._symbox.update(symbols)
        slots = self._slots
        for step in self._steps:
            step()
        if self.training:
            self._run_backward()
        outputs = {
            name: slots[slot] for name, slot in self._output_slots.items()
        }
        return ReplayResult(slots[self._root_slot], outputs)

    def _run_backward(self) -> None:
        grads: List[Optional[np.ndarray]] = [None] * self._num_gids
        root_arr = self._slots[self._root_slot]
        grads[self._root_gid] = np.ones_like(root_arr)
        for entry in self._backward_entries:
            if entry[0] == "op":
                _, gid, bwd, parent_gids, needs = entry
                g = grads[gid]
                if g is None:
                    continue
                grads[gid] = None
                input_grads = bwd(g)
                if not isinstance(input_grads, (tuple, list)):
                    input_grads = (input_grads,)
                for pgid, pg, need in zip(parent_gids, input_grads, needs):
                    if pg is None or not need:
                        continue
                    cur = grads[pgid]
                    grads[pgid] = pg if cur is None else cur + pg
            else:
                _, gid, param = entry
                g = grads[gid]
                if g is None:
                    continue
                grads[gid] = None
                param.grad = g if param.grad is None else param.grad + g


def compile_plan(graph: Graph, training: bool, fuse: bool = True) -> Plan:
    """Compile ``graph`` into a :class:`Plan` (raises :class:`PlanError`)."""
    try:
        return Plan(graph, training=training, fuse=fuse)
    except TraceError:
        raise
    except Exception as exc:
        raise PlanError(f"plan compilation failed: {exc!r}")
