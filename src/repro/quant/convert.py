"""The staged quantization API: ``prepare()`` → ``calibrate()`` → ``convert()``.

Stage 1, :func:`prepare`, swaps every Conv2d/Linear for its
precision-switchable twin (sharing Parameters, so training continues to
work) and attaches a :class:`MinMaxObserver`.  Stage 2,
:func:`repro.quant.calibrate`, fits those observers on representative
data.  Stage 3, :func:`convert`, folds BatchNorm into the preceding convs,
freezes the calibrated ranges, lowers every QConv2d / QLinear to the
integer kernels of :mod:`repro.quant.lowered`, audits the result with the
repo's AUD001 quantization-coverage check, and verifies the integer model
against the frozen-range fake-quant reference within :data:`RTOL` /
:data:`ATOL`.  A convert that fails after lowering puts the QAT twins
back, so the model is left as that frozen reference and a retry runs
every gate again.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..nn.autograd import no_grad
from ..nn.layers.conv import Conv2d
from ..nn.layers.linear import Linear
from ..nn.module import Module
from ..nn.tensor import Tensor, forbid_silent_downcast
from .fold import fold_batch_norm
from .lowered import IntConv2d, IntLinear, LoweredModule
from .observer import MinMaxObserver
from .qmodules import QConv2d, QLinear, QuantizedModule

__all__ = [
    "prepare",
    "convert",
    "freeze_reference",
    "ConvertError",
    "count_quantized_modules",
]

#: Tolerance of convert()'s lowered-vs-reference check on the probe.
RTOL, ATOL = 1e-3, 1e-5


class ConvertError(RuntimeError):
    """Raised when a model cannot be (or was incorrectly) lowered."""


def _named_children(model: Module) -> List[Tuple[str, Module, str, Module]]:
    """Snapshot of ``(full_name, parent, child_name, child)`` for surgery.

    Materialized up front because replacing children mutates the module
    maps being traversed.
    """
    out = []
    for parent_name, parent in list(model.named_modules()):
        for name, child in list(parent._modules.items()):
            full = f"{parent_name}.{name}" if parent_name else name
            out.append((full, parent, name, child))
    return out


def prepare(model: Module) -> Module:
    """Stage 1: swap every Conv2d/Linear for its quantized twin.

    Replacement layers *share* the original Parameter objects, so
    optimizers built on either view stay valid.  Each twin gets a
    :class:`MinMaxObserver` for :func:`repro.quant.calibrate` to fit.
    Layers that are already quantized or lowered are left as they are.
    The model is modified in place and returned.
    """
    for _, parent, name, child in _named_children(model):
        if isinstance(child, (QuantizedModule, LoweredModule)):
            continue
        if isinstance(child, Conv2d):
            q = QConv2d.from_float(child)
        elif isinstance(child, Linear):
            q = QLinear.from_float(child)
        else:
            continue
        q.activation_observer = MinMaxObserver()
        setattr(parent, name, q)
    return model


def _validate_deployable(qmods) -> None:
    problems = []
    for path, m in qmods:
        if m.precision is None:
            problems.append(f"{path}: no precision set")
        rng = m.activation_range
        if rng is None:
            problems.append(f"{path}: no calibrated activation range")
        elif not rng[0] < rng[1]:
            problems.append(f"{path}: degenerate activation range {rng}")
    if problems:
        raise ConvertError(
            "model is not ready for convert():\n  "
            + "\n  ".join(problems)
            + "\nRun prepare(model), apply a precision, and calibrate() first."
        )


def freeze_reference(model: Module) -> Module:
    """Freeze a calibrated QAT model into the deployment fake-quant oracle.

    Applies exactly the semantics :func:`convert` verifies the integer
    engine against, without lowering: eval mode, BatchNorm folded into
    the preceding convs, calibrated activation ranges frozen, per-channel
    weight grids, and weights promoted to float64 so fake dequantization
    is exactly ``step * code``.  Useful as the float baseline when
    benchmarking the integer engine, or to inspect deployment numerics
    with autograd still available.
    """
    model.eval()
    qmods = _quantized_modules(model)
    if not qmods:
        raise ConvertError(
            "freeze_reference() found no quantized modules; run "
            "prepare(model) and calibrate() first"
        )
    _validate_deployable(qmods)
    fold_batch_norm(model)
    # Weight promotion is exact (float32 ⊂ float64), so integer codes are
    # unchanged; see convert() below for why the reference needs it.
    for _, m in qmods:
        m.frozen_range = True
        m.per_channel_weights = True
        m.weight.data = m.weight.data.astype(np.float64)
    return model


def convert(
    model: Module, input_shape: Optional[Tuple[int, ...]] = None
) -> Module:
    """Stage 3: lower a calibrated model to the integer inference engine.

    Pipeline: validate every quantized module is deployable → fold
    BatchNorm into preceding convs → freeze calibrated ranges
    (deployment fake-quant semantics) → capture a reference forward on a
    random probe of ``input_shape`` → lower every QConv2d/QLinear to
    IntConv2d/IntLinear → audit the result with AUD001 (every
    conv/linear must be on the integer path) → check the integer output
    matches the fake-quant reference within :data:`RTOL`/:data:`ATOL`.
    Raises :class:`ConvertError` on any failure.  A failure after
    lowering puts every QConv2d/QLinear back before it propagates: the
    model is then the frozen fake-quant reference with no integer
    kernels, and a retry runs every gate again.  Converting a model that
    is already fully lowered returns it unchanged.

    The returned model is inference-only: integer kernels emit constant
    tensors and the model should stay in eval mode.  Pass
    ``input_shape=None`` to skip the probe-based equivalence check, e.g.
    for models whose input is not a single 4-d/2-d array.
    """
    model.eval()
    qmods = _quantized_modules(model)
    if not qmods:
        if any(isinstance(m, LoweredModule) for m in model.modules()):
            return model  # already converted: idempotent
        raise ConvertError(
            "convert() found no quantized modules; run prepare(model) "
            "and calibrate() first"
        )
    # Deployment reference semantics: frozen calibrated ranges and
    # per-channel weights — exactly the grids the integer kernels use.
    # Weights are promoted to float64 so the fake-quant reference
    # dequantizes to exactly ``step * code`` (a float32 weight tensor
    # would round per element, and a perturbed activation that lands on a
    # code boundary in a later layer flips by a whole quantization step).
    freeze_reference(model)

    probe = reference = None
    if input_shape is not None:
        rng = np.random.default_rng(0)
        probe = rng.standard_normal(input_shape)
        with no_grad(), forbid_silent_downcast(
            "the convert() fake-quant reference forward"
        ):
            # float64 throughout (a silent Tensor downcast now raises): the
            # reference must share the integer engine's activation values
            # exactly, or code-boundary rounding flips whole steps.
            reference = np.asarray(
                model(Tensor(probe, dtype=np.float64)).data, dtype=np.float64
            )

    lowered = []  # (parent, name, QAT twin) for each swap, to undo on failure
    try:
        for _, parent, name, child in _named_children(model):
            if isinstance(child, QConv2d):
                setattr(parent, name, IntConv2d.from_qat(child))
            elif isinstance(child, QLinear):
                setattr(parent, name, IntLinear.from_qat(child))
            else:
                continue
            lowered.append((parent, name, child))
        _check_lowered(model, probe, reference)
    except BaseException:
        for parent, name, child in reversed(lowered):
            setattr(parent, name, child)
        raise
    return model


def _check_lowered(model: Module, probe, reference) -> None:
    """The two gates a lowered model must pass; raises ConvertError."""
    # The AUD001 gate, for real: a converted model with any conv/linear
    # off the integer path is a deployment bug, not a warning.
    from ..analysis.graph import audit_quantization

    report = audit_quantization(model, "convert")
    if report.coverage < 1.0:
        bypassed = [e.path for e in report.bypassing()]
        raise ConvertError(
            "convert() left conv/linear layers outside the integer engine "
            f"(AUD001): {bypassed}"
        )

    if probe is None:
        return
    with no_grad(), forbid_silent_downcast(
        "the convert() integer-engine check forward"
    ):
        lowered_out = np.asarray(
            model(Tensor(probe, dtype=np.float64)).data, dtype=np.float64
        )
    if not np.allclose(lowered_out, reference, rtol=RTOL, atol=ATOL):
        err = float(np.max(np.abs(lowered_out - reference)))
        raise ConvertError(
            f"integer engine diverges from the fake-quant reference: "
            f"max abs error {err:.3g} (rtol={RTOL}, atol={ATOL})"
        )


def _quantized_modules(model: Module) -> List[Tuple[str, QuantizedModule]]:
    return [
        (path, m)
        for path, m in model.named_modules()
        if isinstance(m, QuantizedModule)
    ]


def count_quantized_modules(model: Module) -> int:
    """Number of precision-switchable modules in ``model``."""
    return sum(1 for m in model.modules() if isinstance(m, QuantizedModule))
