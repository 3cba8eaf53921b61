"""Compiling a traced :class:`Graph` into a replayable :class:`Plan`.

A plan is a scheduler with no arithmetic of its own.  Its records are the
traced ones, in trace order: one per ``Function.apply`` call of the eager
step.  Compilation builds two schedules over them:

- the forward, a flat list of zero-argument closures, each re-running one
  record's own ``ctx.forward``;
- the backward, a precompiled entry list of each op class's own
  ``backward`` bound to its ctx, mirroring ``repro.nn.autograd.backward``'s
  reverse-topological walk and its exact accumulation order
  (``existing + new``), minus the per-step graph walk and validation.

Replay therefore runs exactly the ops eager ran, each on its own kernel,
so the two match byte for byte by construction.  Every replay allocates
its outputs afresh, so arrays handed out by one replay are never written
by the next.

A plan holds no array of its step between replays.  Compilation drops
the traced step's tensors (each record's ``out`` and each ctx's
``parents``); each replay hands out its root and taps, then clears its
slots and inputs.  Every plan also releases each op's saved state
(:meth:`Function.release`) at compile time and after each replay (a
training plan once its backward has run), since an op's forward saves
state even under ``no_grad``: ``Relu`` its mask, ``MatMul`` its
operands.  Any compilation surprise raises :class:`PlanError` (a
:class:`TraceError`), which the engine converts into a permanent eager
fallback for that signature.
"""

from __future__ import annotations

from types import MethodType
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..nn.autograd import _topological_order
from ..nn.module import Parameter
from .graph import (
    ConstRef,
    DataRef,
    Graph,
    InputRef,
    ParamRef,
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

    def step():
        kwargs = dict(consts)
        for key, name in symbolic:
            kwargs[key] = symbox[name]
        slots[index] = fwd(*[f() for f in fetchers], **kwargs)

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

    def __init__(self, graph: Graph, training: bool) -> None:
        self.training = training
        self.records = records = list(graph.records)
        self._root_slot = graph.slot_of(graph.root)
        if self._root_slot is None:
            raise PlanError("root is not a traced op output")
        self._output_slots = {k: ref.index for k, ref in graph.outputs.items()}
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
        # No replay reads the traced step's tensors or its ops' saved
        # state: the traced step has run its backward, if it has one.
        for record in records:
            record.out = None
            record.ctx.parents = ()
        self._release()

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
            # The class's own backward, not ``ctx.backward``: an instance
            # override (the op profiler's timing shim) must not outlive
            # the block that installed it by entering the schedule.
            bwd = MethodType(type(ctx).backward, ctx)
            entries.append(
                ("op", gid, bwd, parent_gids, ctx.needs_input_grad)
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
        result = ReplayResult(slots[self._root_slot], outputs)
        slots[:] = [None] * len(slots)
        inbox.clear()
        self._release()
        return result

    def _release(self) -> None:
        """Release each op's saved state."""
        for record in self.records:
            record.ctx.release()

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


def compile_plan(graph: Graph, training: bool) -> Plan:
    """Compile ``graph`` into a :class:`Plan` (raises :class:`PlanError`).

    A graph compiles once: the plan drops its records' traced tensors.
    """
    try:
        return Plan(graph, training=training)
    except TraceError:
        raise
    except Exception as exc:
        raise PlanError(f"plan compilation failed: {exc!r}")
