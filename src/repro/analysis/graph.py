"""Static model auditor: symbolic shape/dtype propagation + tree audits.

The auditor answers "will this model run, and is it wired the way the
paper requires?" without ever executing a forward pass:

- :func:`shapecheck` propagates a symbolic ``(shape, dtype)`` pair
  through the module tree via per-type handlers, producing a
  layer-by-layer :class:`ShapeReport` and raising :class:`ShapeError`
  (with the partial trace) on the first mismatch — misconfigured
  encoder/head combinations fail before any data is loaded.
- :func:`audit_quantization` reports which conv/linear layers carry
  weight/activation fake-quant and which silently bypass it — the
  paper's Eq. 10 quantizer only augments features that actually pass
  through ``QConv2d``/``QLinear``, and a bypassing layer is invisible
  at runtime until accuracy tables drift.
- :func:`audit_parameters`, :func:`audit_batch_statistics`, and
  :func:`audit_state_dict` catch duplicate/unregistered parameters,
  batch-statistics modules that veto ``fuse_views``, and
  ``state_dict``/``load_state_dict`` key asymmetry.

Run ``python -m repro.analysis.graph`` to sweep every encoder in
:mod:`repro.models.registry` (the CI ``analysis`` job gates on it).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..nn.layers.activation import LeakyReLU, ReLU, ReLU6, Sigmoid, Tanh
from ..nn.layers.container import Identity, ModuleList, Sequential
from ..nn.layers.conv import Conv2d
from ..nn.layers.dropout import Dropout
from ..nn.layers.groupnorm import GroupNorm, LayerNorm
from ..nn.layers.linear import Linear
from ..nn.layers.norm import BatchNorm1d, BatchNorm2d
from ..nn.layers.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from ..nn.module import Module, Parameter
from .findings import ERROR, INFO, Finding, exit_code, render_json, render_text

__all__ = [
    "ShapeEntry",
    "ShapeReport",
    "ShapeError",
    "register_shape_handler",
    "shapecheck",
    "QuantLayerEntry",
    "QuantizationReport",
    "audit_quantization",
    "audit_parameters",
    "audit_batch_statistics",
    "audit_state_dict",
    "audit_model",
    "main",
]

Shape = Tuple[int, ...]


# ---------------------------------------------------------------------------
# shape/dtype propagation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ShapeEntry:
    """One traced module: its path, type, and symbolic in/out signature."""

    path: str
    module: str
    input_shape: Shape
    output_shape: Shape
    dtype: str

    def render(self) -> str:
        return (
            f"{self.path:<40} {self.module:<16} "
            f"{str(self.input_shape):<20} -> {self.output_shape} [{self.dtype}]"
        )


@dataclasses.dataclass
class ShapeReport:
    """Layer-by-layer trace in execution order (composites after children)."""

    entries: List[ShapeEntry]
    input_shape: Shape
    output_shape: Shape
    dtype: str

    def render(self) -> str:
        header = (
            f"{'layer':<40} {'type':<16} {'input':<20} -> output [dtype]"
        )
        lines = [header] + [e.render() for e in self.entries]
        lines.append(f"output: {self.output_shape} [{self.dtype}]")
        return "\n".join(lines)

    def __iter__(self):
        return iter(self.entries)


class ShapeError(ValueError):
    """A shape/dtype mismatch found during symbolic propagation.

    Carries the offending module ``path`` and the partial ``entries``
    trace so callers (e.g. the experiment runner's preflight) can show a
    layer-by-layer report of everything that *did* check out.
    """

    def __init__(self, path: str, message: str,
                 entries: Sequence[ShapeEntry] = ()) -> None:
        self.path = path or "<root>"
        self.entries = list(entries)
        text = f"{self.path}: {message}"
        if self.entries:
            traced = "\n".join("  " + e.render() for e in self.entries)
            text += f"\nlayers traced before the failure:\n{traced}"
        super().__init__(text)


_SHAPE_HANDLERS: Dict[Type[Module], Callable] = {}


def register_shape_handler(*module_types: Type[Module]):
    """Register a shape handler for one or more module types.

    The handler receives ``(module, shape, dtype, path, tracer)`` and
    returns ``(output_shape, output_dtype)``.  Dispatch walks the
    module's MRO, so subclasses (e.g. ``QConv2d``) inherit their base
    handler unless they register their own.
    """

    def decorate(fn):
        for module_type in module_types:
            _SHAPE_HANDLERS[module_type] = fn
        return fn

    return decorate


class _Tracer:
    """Recursive dispatcher recording a ShapeEntry per visited module."""

    def __init__(self) -> None:
        self.entries: List[ShapeEntry] = []

    def fail(self, path: str, message: str) -> None:
        raise ShapeError(path, message, self.entries)

    def trace(self, module: Module, shape: Shape, dtype, path: str):
        handler = None
        for klass in type(module).__mro__:
            if klass in _SHAPE_HANDLERS:
                handler = _SHAPE_HANDLERS[klass]
                break
        shape = tuple(int(s) for s in shape)
        if handler is None and hasattr(module, "symbolic_shape"):
            # Fallback protocol: a module may describe its own signature
            # via ``symbolic_shape(shape, dtype) -> (shape, dtype)``,
            # raising ValueError on a mismatch.  This keeps modules that
            # analysis should not import directly (e.g. the lowered
            # integer kernels) traceable without a registry entry.
            try:
                out_shape, out_dtype = module.symbolic_shape(shape, dtype)
            except ValueError as exc:
                self.fail(path, f"{type(module).__name__}: {exc}")
            out_shape = tuple(int(s) for s in out_shape)
            self.entries.append(
                ShapeEntry(path or "<root>", type(module).__name__, shape,
                           out_shape, str(out_dtype))
            )
            return out_shape, out_dtype
        if handler is None:
            self.fail(
                path,
                f"no shape handler registered for "
                f"{type(module).__name__}; register one with "
                f"repro.analysis.register_shape_handler or give the "
                f"module a symbolic_shape(shape, dtype) method",
            )
        out_shape, out_dtype = handler(module, shape, dtype, path, self)
        out_shape = tuple(int(s) for s in out_shape)
        self.entries.append(
            ShapeEntry(path or "<root>", type(module).__name__, shape,
                       out_shape, str(out_dtype))
        )
        return out_shape, out_dtype


def shapecheck(model: Module, input_shape: Sequence[int],
               dtype="float32") -> ShapeReport:
    """Symbolically propagate ``input_shape`` through ``model``.

    No forward pass runs and no data is allocated: each layer's output
    shape is derived from its hyperparameters alone, and every
    constraint a real forward would hit (channel counts, feature dims,
    spatial collapse, residual-branch agreement) is checked on the way.
    Raises :class:`ShapeError` on the first violation.
    """
    input_shape = tuple(int(s) for s in input_shape)
    if any(s <= 0 for s in input_shape):
        raise ShapeError("<input>", f"non-positive input shape {input_shape}")
    tracer = _Tracer()
    out_shape, out_dtype = tracer.trace(model, input_shape,
                                        np.dtype(dtype), "")
    return ShapeReport(tracer.entries, input_shape, out_shape, str(out_dtype))


def _pair(value) -> Tuple[int, int]:
    return (value, value) if isinstance(value, int) else tuple(value)


def _pool_shape(shape: Shape, kernel, stride, padding, path: str,
                tracer: _Tracer, what: str) -> Shape:
    if len(shape) != 4:
        tracer.fail(path, f"{what} expects NCHW input, got {shape}")
    n, c, h, w = shape
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    ph, pw = _pair(padding)
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        tracer.fail(
            path,
            f"{what} kernel {kh}x{kw} (stride {sh}x{sw}, padding "
            f"{ph}x{pw}) collapses spatial size {h}x{w} to {oh}x{ow}",
        )
    return (n, c, oh, ow)


@register_shape_handler(Conv2d)
def _shape_conv2d(module: Conv2d, shape, dtype, path, tracer):
    if len(shape) != 4:
        tracer.fail(path, f"Conv2d expects NCHW input, got {shape}")
    n, c, h, w = shape
    if c != module.in_channels:
        tracer.fail(
            path,
            f"Conv2d expects {module.in_channels} input channels, got {c} "
            f"(input shape {shape})",
        )
    kh, kw = module.kernel_size
    sh, sw = module.stride
    ph, pw = module.padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        tracer.fail(
            path,
            f"Conv2d kernel {kh}x{kw} (stride {sh}x{sw}, padding "
            f"{ph}x{pw}) collapses spatial size {h}x{w} to {oh}x{ow}",
        )
    out_dtype = np.result_type(dtype, module.weight.data.dtype)
    return (n, module.out_channels, oh, ow), out_dtype


@register_shape_handler(Linear)
def _shape_linear(module: Linear, shape, dtype, path, tracer):
    if len(shape) < 2:
        tracer.fail(path, f"Linear expects >= 2-D input, got {shape}")
    if shape[-1] != module.in_features:
        tracer.fail(
            path,
            f"Linear expects {module.in_features} input features, got "
            f"{shape[-1]} (input shape {shape})",
        )
    out_dtype = np.result_type(dtype, module.weight.data.dtype)
    return shape[:-1] + (module.out_features,), out_dtype


@register_shape_handler(BatchNorm1d)
def _shape_bn1d(module: BatchNorm1d, shape, dtype, path, tracer):
    if len(shape) != 2:
        tracer.fail(path, f"BatchNorm1d expects (N, C) input, got {shape}")
    if shape[1] != module.num_features:
        tracer.fail(
            path,
            f"BatchNorm1d expects {module.num_features} features, got "
            f"{shape[1]}",
        )
    return shape, dtype


@register_shape_handler(BatchNorm2d)
def _shape_bn2d(module: BatchNorm2d, shape, dtype, path, tracer):
    if len(shape) != 4:
        tracer.fail(path, f"BatchNorm2d expects NCHW input, got {shape}")
    if shape[1] != module.num_features:
        tracer.fail(
            path,
            f"BatchNorm2d expects {module.num_features} channels, got "
            f"{shape[1]}",
        )
    return shape, dtype


@register_shape_handler(GroupNorm)
def _shape_groupnorm(module: GroupNorm, shape, dtype, path, tracer):
    if len(shape) != 4:
        tracer.fail(path, f"GroupNorm expects NCHW input, got {shape}")
    if shape[1] != module.num_channels:
        tracer.fail(
            path,
            f"GroupNorm expects {module.num_channels} channels, got "
            f"{shape[1]}",
        )
    return shape, dtype


@register_shape_handler(LayerNorm)
def _shape_layernorm(module: LayerNorm, shape, dtype, path, tracer):
    if not shape or shape[-1] != module.normalized_dim:
        tracer.fail(
            path,
            f"LayerNorm expects last dim {module.normalized_dim}, got "
            f"{shape}",
        )
    return shape, dtype


@register_shape_handler(ReLU, ReLU6, LeakyReLU, Sigmoid, Tanh, Identity,
                        Dropout)
def _shape_elementwise(module, shape, dtype, path, tracer):
    return shape, dtype


@register_shape_handler(MaxPool2d, AvgPool2d)
def _shape_pool(module, shape, dtype, path, tracer):
    out = _pool_shape(shape, module.kernel_size, module.stride,
                      module.padding, path, tracer,
                      type(module).__name__)
    return out, dtype


@register_shape_handler(GlobalAvgPool2d)
def _shape_global_pool(module, shape, dtype, path, tracer):
    if len(shape) != 4:
        tracer.fail(path, f"GlobalAvgPool2d expects NCHW input, got {shape}")
    return shape[:2], dtype


@register_shape_handler(Sequential)
def _shape_sequential(module: Sequential, shape, dtype, path, tracer):
    for name, child in module._modules.items():
        child_path = f"{path}.{name}" if path else name
        shape, dtype = tracer.trace(child, shape, dtype, child_path)
    return shape, dtype


@register_shape_handler(ModuleList)
def _shape_modulelist(module: ModuleList, shape, dtype, path, tracer):
    tracer.fail(
        path,
        "ModuleList has no implicit forward; trace its children from the "
        "owning module's handler instead",
    )


def _chain(tracer, path, shape, dtype, *steps):
    """Trace named children in sequence: steps are (name, module) pairs."""
    for name, child in steps:
        child_path = f"{path}.{name}" if path else name
        shape, dtype = tracer.trace(child, shape, dtype, child_path)
    return shape, dtype


def _register_model_handlers() -> None:
    """Handlers for the repo's composite modules.

    Kept in one function (called at import) so the per-layer handlers
    above stay importable without the model packages, and so the import
    graph stays one-directional (analysis -> models/contrastive/eval).
    """
    from ..contrastive.byol import BYOL
    from ..contrastive.moco import MoCo
    from ..contrastive.simclr import SimCLRModel
    from ..contrastive.simsiam import SimSiam
    from ..eval.finetune import ClassifierModel
    from ..models.heads import ProjectionHead
    from ..models.mobilenetv2 import InvertedResidual, MobileNetV2, _ConvBNReLU
    from ..models.resnet import BasicBlock, ResNet

    @register_shape_handler(BasicBlock)
    def _shape_basic_block(module, shape, dtype, path, tracer):
        out, d = _chain(
            tracer, path, shape, dtype,
            ("conv1", module.conv1), ("bn1", module.bn1),
            ("conv2", module.conv2), ("bn2", module.bn2),
        )
        short, ds = tracer.trace(module.shortcut, shape, dtype,
                                 f"{path}.shortcut" if path else "shortcut")
        if out != short:
            tracer.fail(
                path,
                f"residual mismatch: main branch produces {out} but "
                f"shortcut produces {short}",
            )
        return out, np.result_type(d, ds)

    @register_shape_handler(ResNet)
    def _shape_resnet(module, shape, dtype, path, tracer):
        s, d = _chain(
            tracer, path, shape, dtype,
            ("stem_conv", module.stem_conv), ("stem_bn", module.stem_bn),
        )
        if module.stem_kind == "imagenet":
            s = _pool_shape(s, 3, 2, 1, f"{path}.stem_pool" if path
                            else "stem_pool", tracer, "stem max-pool")
        for i, stage in enumerate(module.stages):
            stage_path = f"{path}.stages.{i}" if path else f"stages.{i}"
            s, d = tracer.trace(stage, s, d, stage_path)
        if len(s) != 4:
            tracer.fail(path, f"expected NCHW before pooling, got {s}")
        if s[1] != module.feature_dim:
            tracer.fail(
                path,
                f"final stage produces {s[1]} channels but feature_dim "
                f"claims {module.feature_dim}",
            )
        return (s[0], module.feature_dim), d

    @register_shape_handler(_ConvBNReLU)
    def _shape_conv_bn_relu(module, shape, dtype, path, tracer):
        return _chain(tracer, path, shape, dtype,
                      ("conv", module.conv), ("bn", module.bn))

    @register_shape_handler(InvertedResidual)
    def _shape_inverted_residual(module, shape, dtype, path, tracer):
        s, d = _chain(
            tracer, path, shape, dtype,
            ("body", module.body), ("project", module.project),
            ("project_bn", module.project_bn),
        )
        if module.use_residual and s != shape:
            tracer.fail(
                path,
                f"residual mismatch: block maps {shape} to {s} but "
                f"declares use_residual",
            )
        return s, d

    @register_shape_handler(MobileNetV2)
    def _shape_mobilenet(module, shape, dtype, path, tracer):
        s, d = _chain(
            tracer, path, shape, dtype,
            ("stem", module.stem), ("blocks", module.blocks),
            ("head", module.head),
        )
        if len(s) != 4:
            tracer.fail(path, f"expected NCHW before pooling, got {s}")
        if s[1] != module.feature_dim:
            tracer.fail(
                path,
                f"head produces {s[1]} channels but feature_dim claims "
                f"{module.feature_dim}",
            )
        return (s[0], module.feature_dim), d

    @register_shape_handler(ProjectionHead)  # PredictionHead via MRO
    def _shape_projection_head(module, shape, dtype, path, tracer):
        return _chain(tracer, path, shape, dtype,
                      ("fc1", module.fc1), ("bn", module.bn),
                      ("fc2", module.fc2))

    @register_shape_handler(SimCLRModel)
    def _shape_simclr(module, shape, dtype, path, tracer):
        return _chain(tracer, path, shape, dtype,
                      ("encoder", module.encoder),
                      ("projector", module.projector))

    @register_shape_handler(SimSiam)
    def _shape_simsiam(module, shape, dtype, path, tracer):
        s, d = _chain(tracer, path, shape, dtype,
                      ("encoder", module.encoder),
                      ("projector", module.projector))
        return _chain(tracer, path, s, d, ("predictor", module.predictor))

    @register_shape_handler(BYOL)
    def _shape_byol(module, shape, dtype, path, tracer):
        online, d = _chain(
            tracer, path, shape, dtype,
            ("online_encoder", module.online_encoder),
            ("online_projector", module.online_projector),
            ("predictor", module.predictor),
        )
        target, dt = _chain(
            tracer, path, shape, dtype,
            ("target_encoder", module.target_encoder),
            ("target_projector", module.target_projector),
        )
        if online != target:
            tracer.fail(
                path,
                f"online prediction {online} and target projection "
                f"{target} disagree; byol_loss requires equal shapes",
            )
        return online, np.result_type(d, dt)

    @register_shape_handler(MoCo)
    def _shape_moco(module, shape, dtype, path, tracer):
        query, d = _chain(
            tracer, path, shape, dtype,
            ("query_encoder", module.query_encoder),
            ("query_projector", module.query_projector),
        )
        key, dk = _chain(
            tracer, path, shape, dtype,
            ("key_encoder", module.key_encoder),
            ("key_projector", module.key_projector),
        )
        if query != key:
            tracer.fail(
                path,
                f"query projection {query} and key projection {key} "
                f"disagree; InfoNCE requires equal shapes",
            )
        if query[-1] != module.queue.shape[1]:
            tracer.fail(
                path,
                f"projection dim {query[-1]} does not match queue dim "
                f"{module.queue.shape[1]}",
            )
        return query, np.result_type(d, dk)

    @register_shape_handler(ClassifierModel)
    def _shape_classifier(module, shape, dtype, path, tracer):
        return _chain(tracer, path, shape, dtype,
                      ("encoder", module.encoder), ("head", module.head))

    from ..retrieval.trainer import _VQModel
    from ..retrieval.vq import ProductQuantizer, VectorQuantizer

    @register_shape_handler(VectorQuantizer)
    def _shape_vector_quantizer(module, shape, dtype, path, tracer):
        if len(shape) != 2 or shape[1] != module.dim:
            tracer.fail(
                path,
                f"VectorQuantizer({module.num_codes}, {module.dim}) "
                f"expects (N, {module.dim}) embeddings, got {shape}",
            )
        # Reconstructions are codebook rows: shape-preserving, float32.
        return shape, np.result_type(dtype, module.codebook.data.dtype)

    @register_shape_handler(ProductQuantizer)
    def _shape_product_quantizer(module, shape, dtype, path, tracer):
        if len(shape) != 2 or shape[1] != module.dim:
            tracer.fail(
                path,
                f"ProductQuantizer over {module.num_subspaces} x "
                f"{module.subdim} coordinates expects (N, {module.dim}) "
                f"embeddings, got {shape}",
            )
        d = dtype
        for m, sub in enumerate(module.quantizers):
            sub_path = (f"{path}.quantizers.{m}" if path
                        else f"quantizers.{m}")
            _, d = tracer.trace(sub, (shape[0], module.subdim), dtype,
                                sub_path)
        return shape, d

    @register_shape_handler(_VQModel)
    def _shape_vq_model(module, shape, dtype, path, tracer):
        return _chain(tracer, path, shape, dtype,
                      ("quantizer", module.quantizer))


_register_model_handlers()


# ---------------------------------------------------------------------------
# module/parameter tree audits
# ---------------------------------------------------------------------------

def _loc(model_name: str) -> str:
    return f"<model:{model_name}>"


@dataclasses.dataclass(frozen=True)
class QuantLayerEntry:
    """Quantization status of one conv/linear layer."""

    path: str
    kind: str
    quantized: bool
    precision: Optional[int]
    per_channel_weights: bool


@dataclasses.dataclass
class QuantizationReport:
    """Which weight/activation paths pass through the Eq. 10 quantizer."""

    model_name: str
    entries: List[QuantLayerEntry]

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def quantized(self) -> int:
        return sum(1 for e in self.entries if e.quantized)

    @property
    def coverage(self) -> float:
        """Fraction of conv/linear layers that are precision-switchable
        (1.0 for a model with no such layers)."""
        return self.quantized / self.total if self.total else 1.0

    def bypassing(self) -> List[QuantLayerEntry]:
        return [e for e in self.entries if not e.quantized]

    def findings(self) -> List[Finding]:
        loc = _loc(self.model_name)
        return [
            Finding(
                loc, 0, "AUD001", ERROR,
                f"{entry.kind} at {entry.path!r} bypasses fake-quant "
                f"(not a QuantizedModule); weight/activation paths "
                f"through it are never quantized",
            )
            for entry in self.bypassing()
        ]

    def render(self) -> str:
        lines = [
            f"quantization coverage for {self.model_name}: "
            f"{self.quantized}/{self.total} "
            f"({100.0 * self.coverage:.1f}%)"
        ]
        for e in self.entries:
            status = (
                f"precision={e.precision} "
                f"per_channel={'on' if e.per_channel_weights else 'off'}"
                if e.quantized else "BYPASS"
            )
            lines.append(f"  {e.path:<40} {e.kind:<10} {status}")
        return "\n".join(lines)


def audit_quantization(model: Module,
                       model_name: str = "model") -> QuantizationReport:
    """Report fake-quant coverage over every conv/linear layer.

    Lowered integer kernels (:mod:`repro.quant.lowered`) count as
    quantized: they *are* the deployment quantization path.
    ``repro.quant.convert`` gates on this report reaching 100% coverage,
    so a conv/linear that slipped past lowering is a hard error there.
    """
    from ..quant.lowered import LoweredModule
    from ..quant.qmodules import QuantizedModule

    entries: List[QuantLayerEntry] = []
    for path, module in model.named_modules():
        if isinstance(module, LoweredModule):
            entries.append(QuantLayerEntry(
                path or "<root>", type(module).__name__, True,
                module.weight_bits, True,
            ))
            continue
        if not isinstance(module, (Conv2d, Linear)):
            continue
        if isinstance(module, QuantizedModule):
            entries.append(QuantLayerEntry(
                path or "<root>", type(module).__name__, True,
                module.precision, bool(module.per_channel_weights),
            ))
        else:
            entries.append(QuantLayerEntry(
                path or "<root>", type(module).__name__, False,
                None, False,
            ))
    return QuantizationReport(model_name, entries)


def audit_parameters(model: Module,
                     model_name: str = "model") -> List[Finding]:
    """Find duplicately-registered and unregistered parameters.

    - AUD002: one Parameter object reachable under several dotted names
      (state dicts silently collapse it; optimizers step it twice).
    - AUD003: a Parameter stored where ``Module.__setattr__`` cannot see
      it (inside a list/tuple/dict attribute), so it is invisible to
      ``parameters()``, optimizers, and checkpoints.
    """
    loc = _loc(model_name)
    findings: List[Finding] = []

    by_id: Dict[int, List[str]] = {}
    for name, param in model.named_parameters():
        by_id.setdefault(id(param), []).append(name)
    for names in by_id.values():
        if len(names) > 1:
            findings.append(Finding(
                loc, 0, "AUD002", ERROR,
                f"parameter registered under {len(names)} names: "
                f"{sorted(names)}; shared registration double-counts it "
                f"in state dicts and optimizer steps",
            ))

    registered = {id(p) for p in model.parameters()}
    for path, module in model.named_modules():
        for attr, value in vars(module).items():
            if attr.startswith("_"):
                continue
            container: Sequence = ()
            if isinstance(value, (list, tuple)):
                container = value
            elif isinstance(value, dict):
                container = list(value.values())
            for item in container:
                if isinstance(item, Parameter) and id(item) not in registered:
                    where = f"{path}.{attr}" if path else attr
                    findings.append(Finding(
                        loc, 0, "AUD003", ERROR,
                        f"Parameter hidden inside container attribute "
                        f"{where!r}; it is invisible to parameters(), "
                        f"optimizers, and state_dict()",
                    ))
    return findings


def audit_batch_statistics(model: Module,
                           model_name: str = "model") -> List[Finding]:
    """AUD004 (info): modules that veto fused multi-view forwards."""
    from ..nn.layers.norm import _BatchNorm

    loc = _loc(model_name)
    findings = []
    for path, module in model.named_modules():
        if isinstance(module, (_BatchNorm, Dropout)):
            findings.append(Finding(
                loc, 0, "AUD004", INFO,
                f"{type(module).__name__} at {path or '<root>'!r} couples "
                f"samples or consumes per-call RNG; fuse_views will be "
                f"vetoed for this model",
            ))
    return findings


def audit_state_dict(model: Module,
                     model_name: str = "model") -> List[Finding]:
    """AUD005: ``state_dict``/``load_state_dict`` key symmetry.

    Checks that parameter and buffer names do not collide, that
    ``state_dict()`` emits exactly the union of both namespaces, and
    that the produced dict loads back strictly.  (Loading copies the
    model's own values onto itself, so data is unchanged; parameter
    version counters advance, as any ``load_state_dict`` does.)
    """
    loc = _loc(model_name)
    findings: List[Finding] = []

    param_names = [name for name, _ in model.named_parameters()]
    buffer_names = [name for name, _ in model.named_buffers()]
    for clashing in sorted(set(param_names) & set(buffer_names)):
        findings.append(Finding(
            loc, 0, "AUD005", ERROR,
            f"name {clashing!r} is both a parameter and a buffer; "
            f"state_dict() silently keeps only one",
        ))
    seen: set = set()
    for name in param_names + buffer_names:
        if name in seen:
            findings.append(Finding(
                loc, 0, "AUD005", ERROR,
                f"duplicate state key {name!r}",
            ))
        seen.add(name)

    state = model.state_dict()
    expected = set(param_names) | set(buffer_names)
    missing = expected - set(state)
    extra = set(state) - expected
    if missing or extra:
        findings.append(Finding(
            loc, 0, "AUD005", ERROR,
            f"state_dict() keys diverge from the registered tree: "
            f"missing={sorted(missing)}, unexpected={sorted(extra)}",
        ))
    else:
        try:
            model.load_state_dict(state, strict=True)
        except Exception as exc:  # asymmetric override or shape drift
            findings.append(Finding(
                loc, 0, "AUD005", ERROR,
                f"load_state_dict(state_dict()) round trip failed: {exc}",
            ))
    return findings


def audit_model(model: Module, model_name: str = "model",
                include_batch_statistics: bool = True) -> List[Finding]:
    """Parameter, batch-statistics, and state-dict audits in one list.

    Quantization coverage is intentionally separate
    (:func:`audit_quantization`): on an unconverted float model every
    layer "bypasses" by design.
    """
    findings = audit_parameters(model, model_name)
    if include_batch_statistics:
        findings += audit_batch_statistics(model, model_name)
    findings += audit_state_dict(model, model_name)
    return findings


# ---------------------------------------------------------------------------
# CLI: sweep the model registry (the CI `analysis` job entry point)
# ---------------------------------------------------------------------------

def _check_registry_model(name: str, width: float, image_size: int,
                          batch: int, verbose: bool) -> List[Finding]:
    from ..models import create_encoder
    from ..quant import prepare

    loc = _loc(name)
    findings: List[Finding] = []
    encoder = create_encoder(name, width_multiplier=width,
                             rng=np.random.default_rng(0))
    input_shape = (batch, 3, image_size, image_size)
    try:
        report = shapecheck(encoder, input_shape)
    except ShapeError as exc:
        findings.append(Finding(loc, 0, "SHP001", ERROR,
                                str(exc).splitlines()[0]))
        return findings
    if report.output_shape != (batch, encoder.feature_dim):
        findings.append(Finding(
            loc, 0, "SHP001", ERROR,
            f"shapecheck output {report.output_shape} does not match "
            f"declared feature_dim {encoder.feature_dim}",
        ))
    if verbose:
        print(report.render())

    findings += audit_model(encoder, name, include_batch_statistics=False)

    prepare(encoder)
    coverage = audit_quantization(encoder, name)
    findings += coverage.findings()
    if coverage.coverage < 1.0:
        findings.append(Finding(
            loc, 0, "AUD001", ERROR,
            f"prepare() left coverage at "
            f"{100.0 * coverage.coverage:.1f}% "
            f"({coverage.quantized}/{coverage.total})",
        ))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Shapecheck + audit every registry encoder; nonzero on any error."""
    from ..models import available_encoders

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.graph",
        description="Static shape/quantization audit of registry models.",
    )
    parser.add_argument("--models", default=None,
                        help="comma-separated registry names "
                             "(default: all)")
    parser.add_argument("--width", type=float, default=0.125,
                        help="width multiplier for audited models")
    parser.add_argument("--image-size", type=int, default=32)
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-layer shape traces")
    args = parser.parse_args(argv)

    names = (args.models.split(",") if args.models
             else available_encoders())
    findings: List[Finding] = []
    for name in names:
        findings += _check_registry_model(
            name.strip(), args.width, args.image_size, args.batch,
            args.verbose,
        )
        if not args.json:
            print(f"audited {name}: "
                  f"{'ok' if not findings else f'{len(findings)} finding(s) so far'}")
    print(render_json(findings) if args.json else render_text(findings))
    return exit_code(findings)


if __name__ == "__main__":
    sys.exit(main())
