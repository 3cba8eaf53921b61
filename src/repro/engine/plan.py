"""Compiling a traced :class:`Graph` into a replayable :class:`Plan`.

Compilation has three stages:

1. **Fusion** — single-consumer elementwise chains (``mul→add`` affine
   tails, ``add→relu`` residual joins, and their ``mul→add→relu``
   composition) collapse into one fused node from
   :mod:`repro.nn._ops.fused`.  The fused forward/backward run the exact
   constituent arithmetic in the original order, so bytes are preserved;
   fusion only removes dispatch and intermediate storage.
2. **Buffer planning** — every planned op writes its output into an
   :class:`~repro.engine.arena.Arena` buffer with ``out=``.  Training
   plans keep one persistent buffer per slot (backward reads forward
   activations); inference plans reuse freed buffers via a greedy
   liveness scan.
3. **Schedule compilation** — the forward becomes a flat list of
   zero-argument closures; the backward becomes a precompiled entry list
   that mirrors ``repro.nn.autograd.backward``'s reverse-topological
   walk and its exact accumulation order (``existing + new``), minus the
   per-step graph walk and validation.

Ops without a planned kernel fall back to re-running their recorded
``ctx.forward`` — correct by construction, just unplanned.  Any
compilation surprise raises :class:`PlanError` (a :class:`TraceError`),
which the engine converts into a permanent eager fallback for that
signature.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..nn._ops import conv as _conv
from ..nn._ops import elementwise as _ew
from ..nn._ops import matmul as _mm
from ..nn._ops import reduce as _rd
from ..nn._ops import shape as _sh
from ..nn._ops.fused import FusedAddRelu, FusedMulAdd, FusedMulAddRelu
from ..nn.autograd import _topological_order
from ..nn.module import Parameter
from ..quant import quantizer as _qz
from .arena import Arena, plan_buffers
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
    "PlanVerificationError",
    "ReplayResult",
    "compile_plan",
]


class PlanError(TraceError):
    """A graph traced fine but could not be compiled."""


class PlanVerificationError(PlanError):
    """The compiled plan failed AUD006 aliasing verification.

    Deliberately distinct from :class:`PlanError`: a compile failure is
    a recoverable "run this signature eagerly" condition, but a verified
    aliasing hazard in a plan that *would have been replayed* is a
    planner bug — the engine re-raises it instead of falling back.
    """


class ReplayResult:
    """Arrays produced by one replay.

    ``root`` and ``outputs`` values may be arena buffers that the next
    replay overwrites — copy anything that outlives the step.
    """

    __slots__ = ("root", "outputs")

    def __init__(self, root: np.ndarray, outputs: Dict[str, np.ndarray]):
        self.root = root
        self.outputs = outputs


# Ops whose output may alias their input's storage; their input slots are
# pinned out of the inference reuse pool.
_VIEW_OPS = (_sh.Reshape, _sh.Transpose, _sh.GetItem)

_plan_counter = [0]


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
    """Run the two fusion scans; returns rewritten records and indices."""
    for _ in range(2):  # second scan folds relu over freshly fused affines
        protected = {root_slot} | set(output_slots.values())
        sole = _single_consumer_map(records, protected)
        fusions: Dict[int, Record] = {}
        dropped: Set[int] = set()
        for i, record in enumerate(records):
            if i in dropped:
                continue
            grad = record.requires_grad
            # add → relu  /  fused-mul-add → relu
            if record.op is _ew.Relu and isinstance(record.args[0], SlotRef):
                j = record.args[0].index
                inner = records[j]
                if sole.get(j) != i or j in dropped or j in fusions:
                    continue
                if inner.requires_grad != grad:
                    continue
                if inner.op is _ew.Add and len(inner.args) == 2:
                    state = {
                        "a_shape": inner.ctx.a_shape,
                        "b_shape": inner.ctx.b_shape,
                        "mask": record.ctx.mask,
                    }
                    parents = (
                        (inner.ctx.parents, inner.ctx.needs_input_grad)
                        if grad
                        else None
                    )
                    fusions[i] = _make_fused(
                        FusedAddRelu, state, parents, inner.args, record.out
                    )
                    dropped.add(j)
                elif inner.op is FusedMulAdd:
                    state = {
                        "a": inner.ctx.a,
                        "b": inner.ctx.b,
                        "mul_shape": inner.ctx.mul_shape,
                        "c_shape": inner.ctx.c_shape,
                        "mask": record.ctx.mask,
                        "_mul_dtype": inner.ctx._mul_dtype,
                    }
                    parents = (
                        (inner.ctx.parents, inner.ctx.needs_input_grad)
                        if grad
                        else None
                    )
                    fusions[i] = _make_fused(
                        FusedMulAddRelu, state, parents, inner.args, record.out
                    )
                    dropped.add(j)
                continue
            # mul → add (affine tail)
            if (
                record.op is _ew.Add
                and len(record.args) == 2
                and isinstance(record.args[0], SlotRef)
                and isinstance(record.args[1], (SlotRef, DataRef, ParamRef,
                                                InputRef, ConstRef))
            ):
                j = record.args[0].index
                inner = records[j]
                if sole.get(j) != i or j in dropped or j in fusions:
                    continue
                if inner.op is not _ew.Mul or len(inner.args) != 2:
                    continue
                if inner.requires_grad != grad:
                    continue
                if not all(
                    isinstance(
                        r, (SlotRef, DataRef, ParamRef, InputRef, ConstRef)
                    )
                    for r in inner.args
                ):
                    continue
                if inner.out.data.shape != record.out.data.shape:
                    continue
                if grad and (
                    len(inner.ctx.parents) != 2 or len(record.ctx.parents) != 2
                ):
                    continue
                state = {
                    "a": inner.ctx.a,
                    "b": inner.ctx.b,
                    "mul_shape": inner.out.data.shape,
                    "c_shape": record.ctx.b_shape,
                    "_mul_dtype": inner.out.data.dtype,
                }
                parents = None
                if grad:
                    parents = (
                        inner.ctx.parents + (record.ctx.parents[1],),
                        inner.ctx.needs_input_grad
                        + (record.ctx.needs_input_grad[1],),
                    )
                fusions[i] = _make_fused(
                    FusedMulAdd,
                    state,
                    parents,
                    (inner.args[0], inner.args[1], record.args[1]),
                    record.out,
                )
                dropped.add(j)
        if not fusions:
            break
        records, root_slot, output_slots = _rewrite(
            records, fusions, dropped, root_slot, output_slots
        )
    return records, root_slot, output_slots


# ---------------------------------------------------------------------------
# forward step builders
# ---------------------------------------------------------------------------


def _fetcher(ref, slots, inbox, symbox):
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
    if isinstance(ref, SymbolRef):
        name = ref.name
        return lambda: symbox[name]
    value = ref
    return lambda: value


def _generic_step(record, index, slots, fetchers, kwfetch):
    fwd = record.ctx.forward
    if not kwfetch:
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
    items = tuple(kwfetch.items())
    def step():
        slots[index] = fwd(
            *[f() for f in fetchers], **{k: f() for k, f in items}
        )
    return step


def _build_planned(record, index, slots, fetchers, kwfetch, buf):
    """Return a planned (out=) step for supported ops, else None."""
    op = record.op
    ctx = record.ctx
    out = record.out.data

    if op in (_ew.Add, _ew.Sub) and len(fetchers) == 2 and not kwfetch:
        ufunc = np.add if op is _ew.Add else np.subtract
        fa, fb = fetchers
        def step():
            ufunc(fa(), fb(), out=buf)
            slots[index] = buf
        return step

    if op in (_ew.Mul, _ew.Div, _ew.Maximum) and len(fetchers) == 2 and not kwfetch:
        ufunc = {_ew.Mul: np.multiply, _ew.Div: np.divide,
                 _ew.Maximum: np.maximum}[op]
        fa, fb = fetchers
        def step():
            a = fa()
            b = fb()
            ctx.a = a
            ctx.b = b
            ufunc(a, b, out=buf)
            slots[index] = buf
        return step

    if op is _ew.Neg and len(fetchers) == 1 and not kwfetch:
        (fa,) = fetchers
        def step():
            np.negative(fa(), out=buf)
            slots[index] = buf
        return step

    if op is _ew.Identity and len(fetchers) == 1 and not kwfetch:
        (fa,) = fetchers
        def step():
            np.copyto(buf, fa())
            slots[index] = buf
        return step

    if op is _ew.Relu and len(fetchers) == 1 and not kwfetch:
        (fa,) = fetchers
        mask = np.empty(out.shape, dtype=bool)
        def step():
            a = fa()
            np.greater(a, 0, out=mask)
            ctx.mask = mask
            np.multiply(a, mask, out=buf)
            slots[index] = buf
        return step

    if op in (_ew.Exp, _ew.Sqrt, _ew.Tanh) and len(fetchers) == 1 and not kwfetch:
        ufunc = {_ew.Exp: np.exp, _ew.Sqrt: np.sqrt, _ew.Tanh: np.tanh}[op]
        (fa,) = fetchers
        def step():
            ufunc(fa(), out=buf)
            ctx.out = buf
            slots[index] = buf
        return step

    if op is _ew.Log and len(fetchers) == 1 and not kwfetch:
        (fa,) = fetchers
        def step():
            a = fa()
            ctx.a = a
            np.log(a, out=buf)
            slots[index] = buf
        return step

    if (
        op is _ew.Pow
        and len(fetchers) == 1
        and set(kwfetch) == {"exponent"}
        and not isinstance(record.kwargs["exponent"], SymbolRef)
    ):
        exponent = record.kwargs["exponent"]
        (fa,) = fetchers
        def step():
            a = fa()
            ctx.a = a
            np.power(a, exponent, out=buf)
            slots[index] = buf
        return step

    if op in (_rd.Sum, _rd.Mean) and len(fetchers) == 1:
        axes = ctx.axes
        keepdims = ctx.keepdims
        count = ctx.count if op is _rd.Mean else None
        (fa,) = fetchers
        def step():
            np.sum(fa(), axis=axes, keepdims=keepdims, out=buf)
            if count is not None:
                np.divide(buf, count, out=buf)
            slots[index] = buf
        return step

    if op is _mm.MatMul and len(fetchers) == 2 and not kwfetch:
        a0, b0 = ctx.a, ctx.b
        if a0.ndim < 2 or b0.ndim < 2:
            return None
        fa, fb = fetchers
        def step():
            a = fa()
            b = fb()
            ctx.a = a
            ctx.b = b
            np.matmul(a, b, out=buf)
            slots[index] = buf
        return step

    if op is _mm.Linear and ctx.x.ndim == 2:
        fx, fw = fetchers[0], fetchers[1]
        fbias = fetchers[2] if len(fetchers) > 2 else None
        has_bias = ctx.has_bias and fbias is not None
        def step():
            x = fx()
            w = fw()
            ctx.x = x
            ctx.weight = w
            np.matmul(x, w.T, out=buf)
            if has_bias:
                np.add(buf, fbias(), out=buf)
            slots[index] = buf
        return step

    if op is _sh.Concat:
        axis = ctx.axis
        fs = tuple(fetchers)
        def step():
            np.concatenate([f() for f in fs], axis=axis, out=buf)
            slots[index] = buf
        return step

    if op is _conv.Conv2d:
        return _build_conv_forward(record, index, slots, fetchers, buf)

    if op is FusedMulAdd:
        fa, fb, fc = fetchers
        tmp = np.empty(ctx.mul_shape, dtype=ctx._mul_dtype)
        def step():
            a = fa()
            b = fb()
            ctx.a = a
            ctx.b = b
            np.multiply(a, b, out=tmp)
            np.add(tmp, fc(), out=buf)
            slots[index] = buf
        return step

    if op is FusedAddRelu:
        fa, fb = fetchers
        mask = np.empty(out.shape, dtype=bool)
        def step():
            np.add(fa(), fb(), out=buf)
            np.greater(buf, 0, out=mask)
            ctx.mask = mask
            np.multiply(buf, mask, out=buf)
            slots[index] = buf
        return step

    if op is FusedMulAddRelu:
        fa, fb, fc = fetchers
        tmp = np.empty(ctx.mul_shape, dtype=ctx._mul_dtype)
        mask = np.empty(out.shape, dtype=bool)
        def step():
            a = fa()
            b = fb()
            ctx.a = a
            ctx.b = b
            np.multiply(a, b, out=tmp)
            np.add(tmp, fc(), out=buf)
            np.greater(buf, 0, out=mask)
            ctx.mask = mask
            np.multiply(buf, mask, out=buf)
            slots[index] = buf
        return step

    # Dynamic-range Eq. 10 fake-quant (straight-through backward): the
    # range is recomputed from the live array each replay — the planned
    # form stages Eq. 10 through the arena buffer instead of allocating
    # four temporaries per call.  Stays bitwise: under NumPy's weak
    # scalar promotion a float32 array op with a Python-float step runs
    # in float32 either way, so staging through ``buf`` changes storage,
    # not rounding.  Observer-driven ranges (non-None a_min/a_max) fall
    # back to the generic step.
    if (
        op is _qz._FakeQuantSTE
        and len(fetchers) == 1
        and record.kwargs.get("a_min") is None
        and record.kwargs.get("a_max") is None
        and "bits" in kwfetch
    ):
        (fa,) = fetchers
        fbits = kwfetch["bits"]
        def step():
            a = fa()
            _quantize_into(a, buf, fbits())
            slots[index] = buf
        return step

    if (
        op is _qz._FakeQuantPerViewSTE
        and len(fetchers) == 1
        and "bits" in kwfetch
        and not isinstance(record.kwargs.get("views"), SymbolRef)
    ):
        (fa,) = fetchers
        fbits = kwfetch["bits"]
        views = int(record.kwargs["views"])
        if views < 1 or out.shape[0] % max(views, 1):
            return None
        chunk = out.shape[0] // views
        spans = tuple(
            slice(v * chunk, (v + 1) * chunk) for v in range(views)
        )
        def step():
            a = fa()
            bits = fbits()
            if views == 1:
                _quantize_into(a, buf, bits)
            else:
                for span in spans:
                    _quantize_into(a[span], buf[span], bits)
            slots[index] = buf
        return step

    return None


def _quantize_into(a, buf, bits):
    """Eq. 10 (`linear_quantize`) with dynamic range, staged into ``buf``."""
    lo = float(a.min())
    hi = float(a.max())
    step = (hi - lo) / (2.0 ** bits - 1.0)
    if step == 0.0 or not math.isfinite(step):
        np.copyto(buf, a)
        return
    np.divide(a, step, out=buf)
    np.round(buf, out=buf)
    np.multiply(buf, step, out=buf)


def _build_conv_forward(record, index, slots, fetchers, buf):
    ctx = record.ctx
    n, c_in = ctx.x_shape[:2]
    kh, kw = ctx.weight.shape[2:]
    oh, ow = buf.shape[2:]
    dtype = ctx.weight.dtype
    # Zeroed once: the forward rewrites only the interior of the frame.
    padded = None
    if any(ctx.padding):
        padded = np.zeros(ctx.padded_shape, dtype=dtype)
    cols = np.empty((n, c_in, kh, kw, oh, ow), dtype=dtype)
    kwargs = dict(stride=ctx.stride, padding=ctx.padding, groups=ctx.groups,
                  out=buf, cols=cols, padded=padded)

    def step():
        ctx.forward(*[f() for f in fetchers], **kwargs)
        slots[index] = buf

    return step


# ---------------------------------------------------------------------------
# planned backward kernels
# ---------------------------------------------------------------------------


def _planned_conv_backward(ctx, out_shape):
    n, c_out, oh, ow = out_shape
    dtype = ctx.weight.dtype
    c_in_g, kh, kw = ctx.weight.shape[1:]
    k = c_in_g * kh * kw
    grad_w = np.empty((ctx.groups, c_out // ctx.groups, k), dtype=dtype)
    # A conv whose input needs no gradient (the stem) never computes one,
    # so its input-gradient buffers are never allocated.
    grad_cols = grad_padded = None
    if ctx.needs_input_grad[0]:
        grad_cols = np.empty((n, ctx.groups, k, oh * ow), dtype=dtype)
        grad_padded = np.empty(ctx.padded_shape, dtype=dtype)

    def bwd(grad):
        return ctx.backward(grad, grad_w, grad_cols, grad_padded)

    return bwd


def _planned_linear_backward(ctx, out_shape):
    if ctx.x.ndim != 2 or len(out_shape) != 2:
        return None
    gx_buf = np.empty(ctx.x.shape, dtype=ctx.x.dtype)
    gw_buf = np.empty(ctx.weight.shape, dtype=ctx.weight.dtype)

    def bwd(grad):
        np.matmul(grad, ctx.weight, out=gx_buf)
        np.matmul(grad.T, ctx.x, out=gw_buf)
        grads = [gx_buf, gw_buf]
        if ctx.has_bias:
            grads.append(grad.sum(axis=0))
        return tuple(grads[: len(ctx.parents)])

    return bwd


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


class Plan:
    """A compiled, replayable step.

    Training plans (``training=True``) run the precompiled backward on
    every replay, accumulating into ``Parameter.grad`` exactly as the
    eager engine does.  Inference plans validate parameter versions via
    :meth:`stale` so weight updates force a retrace (the spec'd
    invalidation rule), and reuse output buffers across slots.
    """

    def __init__(
        self,
        graph: Graph,
        training: bool,
        arena: Optional[Arena] = None,
        fuse: bool = True,
    ) -> None:
        self.training = training
        self.arena = arena if arena is not None else Arena()
        _plan_counter[0] += 1
        self._plan_no = _plan_counter[0]

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
        records = self.records
        slots = self._slots
        planned: Set[int] = set()
        steps: List[Callable[[], None]] = []
        # First pass: decide which slots can take planned (out=) kernels,
        # so the liveness planner knows which slots own arena storage.
        view_parents: Set[int] = set()
        for record in records:
            if record.op in _VIEW_OPS:
                for ref in _ref_slots(record):
                    view_parents.add(ref.index)
        candidates: Set[int] = set()
        for i, record in enumerate(records):
            if record.op in _VIEW_OPS:
                continue
            candidates.add(i)
        pinned = set(range(len(records))) - candidates
        pinned |= {self._root_slot}
        pinned |= set(self._output_slots.values())
        pinned |= view_parents
        keys = plan_buffers(records, pinned, reuse=not self.training)
        # Exposed for the AUD006 plan-aliasing verifier
        # (repro.analysis.plans): the buffer assignment actually compiled
        # in, and which slots really write into arena storage.
        self._buffer_keys = dict(keys)
        self._pinned_slots = frozenset(pinned)
        self._planned_buffers: Dict[int, np.ndarray] = {}

        for i, record in enumerate(records):
            fetchers = tuple(
                _fetcher(r, slots, self._inbox, self._symbox)
                for r in record.args
            )
            kwfetch = {
                k: _fetcher(v, slots, self._inbox, self._symbox)
                for k, v in record.kwargs.items()
            }
            step = None
            if i in candidates:
                out = record.out.data
                buf = self.arena.buffer(
                    (self._plan_no, keys[i]), out.shape, out.dtype
                )
                try:
                    step = _build_planned(
                        record, i, slots, fetchers, kwfetch, buf
                    )
                except Exception as exc:  # pragma: no cover - defensive
                    raise PlanError(
                        f"planned kernel for {record.op.__name__} failed: {exc}"
                    )
            if step is None:
                step = _generic_step(record, i, slots, fetchers, kwfetch)
            elif i in candidates:
                self._planned_buffers[i] = buf
            steps.append(step)
        self._steps = steps

    def _compile_backward(self, root) -> None:
        order = _topological_order(root)
        gids = {id(t): k for k, t in enumerate(order)}
        self._num_gids = len(order)
        self._root_gid = gids[id(root)]
        # Planned backward kernels, keyed by ctx identity.
        planned_bwd: Dict[int, Callable] = {}
        for record in self.records:
            if not record.requires_grad:
                continue
            ctx = record.ctx
            bwd = None
            if record.op is _conv.Conv2d:
                bwd = _planned_conv_backward(ctx, record.out.data.shape)
            elif record.op is _mm.Linear:
                bwd = _planned_linear_backward(ctx, record.out.data.shape)
            if bwd is not None:
                planned_bwd[id(ctx)] = bwd
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
            bwd = planned_bwd.get(id(ctx), ctx.backward)
            parent_gids = tuple(gids[id(p)] for p in ctx.parents)
            entries.append(("op", gid, bwd, parent_gids, ctx.needs_input_grad))
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
                # ``g`` may be a planned kernel's buffer, which the next
                # replay overwrites: the first write takes a copy.
                param.grad = g.copy() if param.grad is None else param.grad + g


def compile_plan(
    graph: Graph,
    training: bool,
    arena: Optional[Arena] = None,
    fuse: bool = True,
    verify: Optional[bool] = None,
) -> Plan:
    """Compile ``graph`` into a :class:`Plan` (raises :class:`PlanError`).

    ``verify=True`` — or the ``REPRO_PLAN_VERIFY`` environment flag when
    ``verify`` is left ``None`` — runs the AUD006 static aliasing
    verifier (:func:`repro.analysis.plans.verify_plan`) on the compiled
    plan and raises :class:`PlanVerificationError` if it proves a
    hazard.  Off by default: it is a debug/CI mode, not a per-trace
    cost.
    """
    try:
        plan = Plan(graph, training=training, arena=arena, fuse=fuse)
    except TraceError:
        raise
    except Exception as exc:
        raise PlanError(f"plan compilation failed: {exc!r}")
    if verify is None:
        import os

        verify = os.environ.get(
            "REPRO_PLAN_VERIFY", ""
        ).strip().lower() not in ("", "0", "false", "off", "no")
    if verify:
        from ..analysis.plans import verify_plan

        findings = verify_plan(plan)
        if findings:
            rendered = "; ".join(f.message for f in findings)
            raise PlanVerificationError(
                f"plan failed AUD006 verification: {rendered}"
            )
    return plan
