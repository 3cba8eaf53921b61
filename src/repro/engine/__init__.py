"""Tracing graph executor: trace one eager step, compile, replay.

The engine records a single eager training or serving step into a
:class:`~repro.engine.graph.Graph` (via a ``Function.apply`` hook),
compiles it into a :class:`~repro.engine.plan.Plan` and replays the plan
on subsequent steps.  A plan's records are the eager step's ops, one for
one and in order, and a replay re-runs each one's own ``forward`` and
``backward``, so it is byte-identical to eager execution by
construction; anything the tracer or compiler cannot prove replayable
falls back to eager, permanently for that signature.

:func:`run_backward` is the sanctioned eager entry to the autograd tape
outside :mod:`repro.nn` (lint rule RPR008).
"""

from .engine import EngineResult, ExecutionEngine, run_backward
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
from .plan import Plan, PlanError, ReplayResult, compile_plan
from .tracer import Tracer, tracing

__all__ = [
    "ConstRef",
    "DataRef",
    "EngineResult",
    "ExecutionEngine",
    "Graph",
    "InputRef",
    "ParamRef",
    "Plan",
    "PlanError",
    "Record",
    "ReplayResult",
    "SlotRef",
    "SymbolRef",
    "TraceError",
    "Tracer",
    "compile_plan",
    "run_backward",
    "tracing",
]
