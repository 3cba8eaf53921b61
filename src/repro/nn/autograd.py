"""Reverse-mode automatic differentiation engine.

This module provides the two building blocks of the autograd system:

- :class:`Function` — the base class for differentiable operations.  Each
  operation subclasses it, implements ``forward`` (on raw numpy arrays) and
  ``backward`` (mapping the upstream gradient to per-input gradients), and is
  invoked through :meth:`Function.apply`, which records the graph edge.
- the backward engine — :func:`backward` walks the recorded graph in reverse
  topological order and accumulates gradients into ``Tensor.grad``.

Gradient recording can be suspended with :func:`no_grad` (used by evaluation
loops and optimizer updates) or queried with :func:`is_grad_enabled`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Function",
    "backward",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "unbroadcast",
]


class _GradMode(threading.local):
    """Thread-local flag controlling whether operations record the graph."""

    def __init__(self) -> None:
        self.enabled = True


_grad_mode = _GradMode()


class _TraceState(threading.local):
    """Thread-local slot for the active :mod:`repro.engine` tracer.

    ``Function.apply`` checks this slot on every call; when a tracer is
    installed it receives ``(cls, ctx, inputs, kwargs, out)`` for each op.
    The check is a single attribute read so the eager path pays nothing
    measurable when no trace is running.
    """

    def __init__(self) -> None:
        self.tracer = None


_trace_state = _TraceState()


def _set_tracer(tracer) -> None:
    """Install (or clear, with None) the active tracer for this thread."""
    _trace_state.tracer = tracer


def _active_tracer():
    return _trace_state.tracer


def is_grad_enabled() -> bool:
    """Return True when operations currently record the autograd graph."""
    return _grad_mode.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording within its block."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


@contextlib.contextmanager
def enable_grad():
    """Context manager that re-enables graph recording within its block."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = True
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Broadcasting during the forward pass implicitly replicates the smaller
    operand; the chain rule therefore requires summing the upstream gradient
    over every broadcast dimension.
    """
    if grad.shape == tuple(shape):
        return grad
    # Sum away leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were size-1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Function:
    """Base class for differentiable operations.

    Subclasses implement ``forward(self, *arrays, **kwargs) -> ndarray`` and
    ``backward(self, grad_output) -> tuple`` returning one gradient array (or
    ``None``) per tensor input, in order: ``len(self.needs_input_grad)``
    of them.  Use :meth:`apply` to invoke.

    ``forward`` keeps on ``self`` everything ``backward`` reads, and finds
    nothing there on entry but ``needs_input_grad``.  A compiled plan
    (:mod:`repro.engine.plan`) re-runs both on the traced ctx, whose
    ``parents`` it has dropped, and a training plan calls :meth:`release`
    once each replay's backward has run.  So a replayed ctx has no
    ``parents``, and an op must not read ``self.parents`` (lint rule
    RPR012).
    """

    def __init__(self) -> None:
        self.parents: Tuple[Any, ...] = ()
        self.needs_input_grad: Tuple[bool, ...] = ()

    # -- to be provided by subclasses -------------------------------------
    def forward(self, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        raise NotImplementedError

    def release(self) -> None:
        """Drop the parents and all saved state; keep ``needs_input_grad``."""
        needs = self.needs_input_grad
        self.__dict__.clear()
        self.parents, self.needs_input_grad = (), needs

    # -- graph construction -------------------------------------------------
    @classmethod
    def apply(cls, *inputs: Any, **kwargs: Any):
        """Run the op, wrapping the result in a Tensor linked to its inputs.

        ``inputs`` may mix Tensors and plain arrays/scalars; only Tensor
        inputs participate in gradient flow.
        """
        from .tensor import Tensor  # local import avoids a cycle

        ctx = cls()
        tensor_inputs = tuple(x for x in inputs if isinstance(x, Tensor))
        raw = tuple(x.data if isinstance(x, Tensor) else x for x in inputs)
        requires_grad = is_grad_enabled() and any(
            t.requires_grad for t in tensor_inputs
        )
        # Set before forward, so an op saves backward state only when a
        # backward can run (``needs_input_grad`` stays empty otherwise).
        # One flag per tensor input: backward's gradient count.
        if requires_grad:
            ctx.needs_input_grad = tuple(t.requires_grad for t in tensor_inputs)
        out_data = ctx.forward(*raw, **kwargs)

        # Preserve the op's output dtype: the float32 default only applies
        # to user-constructed tensors, not to intermediate graph nodes
        # (float64 inputs must stay float64 for gradient checking).
        out = Tensor(out_data, requires_grad=requires_grad, dtype=out_data.dtype)
        if requires_grad:
            ctx.parents = tensor_inputs
            out._ctx = ctx
        tracer = _trace_state.tracer
        if tracer is not None:
            tracer.record(cls, ctx, inputs, kwargs, out)
        return out


def _topological_order(root) -> List[Any]:
    """Return tensors reachable from ``root`` in reverse-usable topo order."""
    order: List[Any] = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if node._ctx is not None:
            for parent in node._ctx.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
    return order


def backward(root, grad: Optional[np.ndarray] = None) -> None:
    """Backpropagate from ``root``, accumulating into ``Tensor.grad``.

    ``grad`` defaults to ones for scalar roots; non-scalar roots require an
    explicit upstream gradient, mirroring the usual autograd contract.
    """
    if not root.requires_grad:
        raise RuntimeError(
            "backward() called on a tensor that does not require grad"
        )
    if grad is None:
        if root.data.size != 1:
            raise RuntimeError(
                "grad must be provided for non-scalar outputs "
                f"(got shape {root.data.shape})"
            )
        grad = np.ones_like(root.data)
    grad = np.asarray(grad, dtype=root.data.dtype)

    grads = {id(root): grad}
    for node in reversed(_topological_order(root)):
        node_grad = grads.pop(id(node), None)
        if node_grad is None:
            continue
        is_leaf = node._ctx is None
        if (node.requires_grad and is_leaf) or node._retain_grad:
            node.grad = node_grad if node.grad is None else node.grad + node_grad
        ctx = node._ctx
        if ctx is None:
            continue
        input_grads = ctx.backward(node_grad)
        if not isinstance(input_grads, (tuple, list)):
            input_grads = (input_grads,)
        if len(input_grads) != len(ctx.parents):
            raise RuntimeError(
                f"{type(ctx).__name__}.backward returned "
                f"{len(input_grads)} gradients for {len(ctx.parents)} inputs"
            )
        for parent, parent_grad, needs in zip(
            ctx.parents, input_grads, ctx.needs_input_grad
        ):
            if parent_grad is None or not needs:
                continue
            parent_grad = np.asarray(parent_grad)
            if parent_grad.shape != parent.data.shape:
                raise RuntimeError(
                    f"{type(ctx).__name__} produced gradient of shape "
                    f"{parent_grad.shape} for input of shape {parent.data.shape}"
                )
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + parent_grad
            else:
                grads[key] = parent_grad
