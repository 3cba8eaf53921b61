"""The execution engine: plan cache, invalidation, and fallback policy.

One :class:`ExecutionEngine` owns the plans for one step shape (a
trainer's step, or a serving model's forward) on one thread.  The flow
per :meth:`execute` call:

- ``mode="eager"`` — run the caller's eager step untouched.
- signature seen before and compiled → **plan hit**: replay.
- stale plan (a guarded ``Parameter.version`` moved) or a signature the
  engine was told to :meth:`invalidate` → **retrace**: run the step
  eagerly under the tracer and recompile.
- unknown signature → **trace** (counted as a plan miss).
- untraceable step (foreign graphs, models that bypass the tape, failed
  compile) → **fallback**: the signature is vetoed and runs eagerly from
  then on.

Tracing piggybacks on a real eager step, so the step that produces a
plan returns its eager results — replay only ever serves *subsequent*
steps, and a veto costs nothing but the bookkeeping.

``run_backward`` is the sanctioned eager backward entry point outside
``repro/nn`` (lint rule RPR008): trainers call it so that every tape
walk is either this function or a compiled plan's schedule.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Set, Tuple

import numpy as np

from ..nn import autograd
from ..nn.tensor import Tensor
from .graph import TraceError
from .plan import Plan, compile_plan
from .tracer import Tracer, tracing

__all__ = ["EngineResult", "ExecutionEngine", "run_backward"]

_MODES = ("trace", "eager")


def run_backward(tensor: Tensor, grad: Optional[np.ndarray] = None) -> None:
    """Run an eager backward pass from ``tensor``.

    This is the one sanctioned entry to the autograd tape outside
    :mod:`repro.nn` and :mod:`repro.engine` (rule RPR008) — eager
    trainers and the engine's own traced steps route through it, so
    plan-vs-eager coverage is decided in exactly one place.
    """
    autograd.backward(tensor, grad)


class EngineResult:
    """Outcome of one engine step.

    ``root`` and ``outputs`` hold the step's arrays; a later step never
    writes into them.  ``executed`` is ``"replay"`` or ``"eager"``.
    """

    __slots__ = ("executed", "root", "outputs")

    def __init__(self, executed: str, root, outputs) -> None:
        self.executed = executed
        self.root = root
        self.outputs = outputs

    @property
    def replayed(self) -> bool:
        return self.executed == "replay"


class ExecutionEngine:
    """Trace-once/replay executor with an invalidating plan cache."""

    def __init__(self, mode: str = "trace", training: bool = True) -> None:
        if mode not in _MODES:
            raise ValueError(f"engine mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.training = training
        self._plans: Dict[Hashable, Plan] = {}
        self._known: Set[Hashable] = set()
        self._vetoed: Set[Hashable] = set()
        self.plan_hits = 0
        self.plan_misses = 0
        self.retraces = 0
        self.fallbacks = 0

    # -- bookkeeping -------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "retraces": self.retraces,
            "fallbacks": self.fallbacks,
        }

    def invalidate(self) -> None:
        """Drop all compiled plans; known signatures retrace on next use.

        ``ContrastiveQuantTrainer.finalize()`` calls it (the encoder
        returns to full precision), and so does every trainer's
        ``load_state_dict()`` (restored values replace traced constants)
        and ``EmbeddingService`` when it first serves a new model version
        (the superseded version's plans would otherwise live forever).
        """
        self._plans.clear()

    def plan_for(self, signature: Hashable) -> Optional[Plan]:
        return self._plans.get(signature)

    def veto(self, signature: Hashable) -> None:
        """Permanently exclude ``signature`` from tracing.

        For steps the *caller* knows are unsafe to replay before the
        tracer could find out — e.g. forwards with Dropout, whose mask a
        replay would not redraw, or active range observers.  Vetoed
        signatures run (and count) as fallbacks.
        """
        self._plans.pop(signature, None)
        self._vetoed.add(signature)

    # -- execution ---------------------------------------------------------
    def execute(
        self,
        signature: Hashable,
        inputs: Dict[str, Tensor],
        symbols: Optional[Dict[str, int]],
        eager_fn: Callable[[], Tuple[Tensor, Dict[str, Tensor]]],
    ) -> EngineResult:
        """Run one step through the plan for ``signature``.

        ``eager_fn`` must execute the complete eager step — including
        the backward pass when ``training`` — over the Tensors in
        ``inputs``, and return ``(root, taps)`` where ``taps`` maps
        output names to graph Tensors.  It runs whenever there is no
        replayable plan; when it runs under the tracer its results are
        still the eager ones.
        """
        if self.mode != "trace":
            root, taps = eager_fn()
            return self._eager_result(root, taps)
        if signature in self._vetoed:
            self.fallbacks += 1
            root, taps = eager_fn()
            return self._eager_result(root, taps)

        plan = self._plans.get(signature)
        if plan is not None and not plan.stale():
            self.plan_hits += 1
            arrays = {
                name: value.data if isinstance(value, Tensor) else value
                for name, value in inputs.items()
            }
            result = plan.replay(arrays, symbols)
            return EngineResult("replay", result.root, result.outputs)

        retracing = plan is not None or signature in self._known
        tracer = Tracer(inputs=inputs, symbols=symbols)
        with tracing(tracer):
            root, taps = eager_fn()
        try:
            graph = tracer.finalize(root, taps)
            new_plan = compile_plan(graph, training=self.training)
        except TraceError:
            self._plans.pop(signature, None)
            self._vetoed.add(signature)
            self.fallbacks += 1
            return self._eager_result(root, taps)
        self._plans[signature] = new_plan
        self._known.add(signature)
        self.plan_misses += 1
        if retracing:
            self.retraces += 1
        return self._eager_result(root, taps)

    @staticmethod
    def _eager_result(root: Tensor, taps: Dict[str, Tensor]) -> EngineResult:
        outputs = {name: t.data for name, t in taps.items()}
        return EngineResult("eager", root.data, outputs)
