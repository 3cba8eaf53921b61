"""Contrastive Quant: quantization as augmentation (the paper's core).

Per training iteration, two precisions ``(q1, q2)`` are sampled from a
:class:`~repro.quant.PrecisionSet` and the encoder's quantized modules are
switched between them, producing differently-augmented weights/activations.
The three pipelines of Fig. 1 combine this with input augmentations:

``CQ-A`` (Eq. 5)
    Sequential augmentation — each view is encoded at its own precision::

        Loss = NCE(F_q1(Aug1(x)), F_q2(Aug2(x)))

``CQ-B`` (Eqs. 6-8)
    Per-precision view consistency only::

        Loss = NCE(f1, f1+) + NCE(f2, f2+)

``CQ-C`` (Eq. 9)
    CQ-B plus explicit cross-precision consistency within each view::

        Loss = NCE(f1, f1+) + NCE(f2, f2+) + NCE(f1, f2) + NCE(f1+, f2+)

``CQ-Quant`` (Sec. 4.5 ablation)
    Quantization is the *only* augmentation::

        Loss = NCE(F_q1(x), F_q2(x))

where ``f_i = F_qi(Aug1(x))`` and ``f_i+ = F_qi(Aug2(x))``.

The same pipelines apply on top of BYOL with NCE replaced by BYOL's
regression loss; view-consistency terms regress online predictions onto the
(full-precision, stop-gradient) target projections, and the cross-precision
terms regress the two online predictions onto each other with alternating
stop-gradients (SimSiam-style) to preclude collapse.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..engine import ExecutionEngine, run_backward
from ..nn import functional as F
from ..nn.layers import contains_batch_statistics
from ..nn.optim import Optimizer
from ..nn.rng import ensure_rng
from ..nn.tensor import Tensor
from ..quant import (
    PrecisionSet,
    QuantCache,
    apply_precision,
    count_quantized_modules,
    precision,
    prepare,
)
from ..quant.qmodules import QuantizedModule
from .base import TrainerBase
from .byol import BYOL
from .losses import byol_loss, nt_xent
from .simclr import SimCLRModel

__all__ = ["CQVariant", "ContrastiveQuantTrainer"]


class CQVariant(enum.Enum):
    """The design pipelines of Fig. 1 (+ the quantization-only ablation)."""

    A = "cq-a"
    B = "cq-b"
    C = "cq-c"
    QUANT = "cq-quant"

    @classmethod
    def parse(cls, value: Union[str, "CQVariant"]) -> "CQVariant":
        if isinstance(value, cls):
            return value
        normalized = value.lower().replace("_", "-")
        for variant in cls:
            if normalized in (variant.value, variant.name.lower()):
                return variant
        raise ValueError(
            f"unknown CQ variant {value!r}; expected one of "
            f"{[v.value for v in cls]}"
        )

    def loss_terms(self) -> List[str]:
        """Human-readable inventory of the NCE terms (Fig. 1 / bench)."""
        if self is CQVariant.A:
            return ["NCE(F_q1(Aug1(x)), F_q2(Aug2(x)))"]
        if self is CQVariant.B:
            return ["NCE(f1, f1+)", "NCE(f2, f2+)"]
        if self is CQVariant.C:
            return [
                "NCE(f1, f1+)",
                "NCE(f2, f2+)",
                "NCE(f1, f2)",
                "NCE(f1+, f2+)",
            ]
        return ["NCE(F_q1(x), F_q2(x))"]


class ContrastiveQuantTrainer(TrainerBase):
    """Contrastive Quant on top of SimCLR or BYOL.

    Parameters
    ----------
    method:
        A :class:`SimCLRModel` or :class:`BYOL` instance.  The encoder (the
        online encoder for BYOL) is converted with
        :func:`repro.quant.prepare` if it has no quantized modules
        yet; projection/prediction heads stay full precision, matching the
        paper's "encoder quantized to different precisions".
    variant:
        One of :class:`CQVariant` (or its string name).
    precision_set:
        The per-iteration sampling set, e.g. ``"6-16"``.
    optimizer:
        Optimizer over the method's trainable parameters.
    rng:
        Precision-sampling generator (kept separate from data shuffling so
        runs stay reproducible).
    fuse_views:
        Encode both views of a same-precision pair as one concatenated
        2N-batch forward (SimCLR-style), halving forward count for CQ-B/C.
        Auto-disabled while the method contains batch-statistics layers
        (BatchNorm, Dropout), whose fused numerics would differ from two
        separate forwards; on batch-statistics-free models fused and
        unfused losses are byte-identical (activations are fake-quantized
        per view).
    weight_cache:
        Memoize fake-quantized weights across same-step forwards (see
        :class:`repro.quant.QuantCache`).  When False, lookups still count
        as misses so quant-sweep telemetry stays comparable.
    engine:
        ``"trace"`` (default) records the first eager step per plan
        signature into a :class:`repro.engine.ExecutionEngine` plan and
        replays it on subsequent steps — the ops eager ran, each on its
        own kernel, so byte-identical to eager.  Steps the engine cannot
        prove replayable (batch-statistics layers, active range
        observers) fall back to eager automatically.  ``"eager"``
        disables tracing entirely.
    """

    def __init__(
        self,
        method: Union[SimCLRModel, BYOL],
        variant: Union[str, CQVariant],
        precision_set: Union[str, PrecisionSet],
        optimizer: Optimizer,
        rng: Optional[np.random.Generator] = None,
        temperature: float = 0.5,
        precision_sampler=None,
        fuse_views: bool = True,
        weight_cache: bool = True,
        engine: str = "trace",
    ) -> None:
        if not isinstance(method, (SimCLRModel, BYOL)):
            raise TypeError(
                f"method must be SimCLRModel or BYOL, got {type(method).__name__}"
            )
        self.method = method
        self.variant = CQVariant.parse(variant)
        self.precision_set = PrecisionSet.parse(precision_set)
        self.optimizer = optimizer
        self.rng = ensure_rng(rng)
        self.temperature = temperature
        #: optional schedule object with ``next_pair() -> (q1, q2)``; when
        #: None the paper's uniform per-iteration sampling is used (see
        #: repro.quant.schedule for the CPT-style alternative).
        self.precision_sampler = precision_sampler
        self.fuse_views = bool(fuse_views)
        self.quant_cache = QuantCache(enabled=bool(weight_cache))
        self.engine = ExecutionEngine(mode=engine, training=True)
        self._last_pair: Optional[Tuple[int, int]] = None
        self._last_terms: Dict[str, float] = {}
        self._term_taps: Dict[str, Tensor] = {}
        self._last_cache: Optional[Tuple[int, int]] = None
        self._last_engine: Optional[Dict[str, int]] = None
        # Per-signature counter effects of one step (quant-cache hits,
        # forward counts), captured while tracing so replayed steps can
        # advance the same telemetry the eager step would have.
        self._traced_effects: Dict[object, Dict[str, float]] = {}
        self._init_telemetry()

        encoder = self._encoder()
        if count_quantized_modules(encoder) == 0:
            prepare(encoder)

    # -- plumbing ----------------------------------------------------------
    @property
    def is_byol(self) -> bool:
        return isinstance(self.method, BYOL)

    def _training_module(self):
        return self.method

    def _encoder(self):
        return (
            self.method.online_encoder if self.is_byol else self.method.encoder
        )

    @property
    def fusion_active(self) -> bool:
        """Whether two-view forwards currently fuse into one 2N batch.

        ``fuse_views`` requests fusion; batch-statistics layers anywhere in
        the method (BatchNorm coupling samples, Dropout consuming RNG per
        call) veto it so numerics stay identical to the unfused path.
        """
        return self.fuse_views and not contains_batch_statistics(self.method)

    def _forward_online(self, x: Tensor) -> Tensor:
        self.metrics.counter("encoder_forwards").inc()
        if self.is_byol:
            return self.method.online_forward(x)
        return self.method(x)

    def _project(self, x: Tensor, bits: int) -> Tensor:
        """Forward at precision ``bits`` through the full (SimCLR) model."""
        with precision(self._encoder(), bits, cache=self.quant_cache):
            return self._forward_online(x)

    def _project_pair(
        self, xa: Tensor, xb: Tensor, bits: int
    ) -> Tuple[Tensor, Tensor]:
        """Encode two views at the same precision.

        Fused: one 2N-batch forward, split back into the two views
        (activations fake-quantize per view chunk, so values match the
        unfused path exactly).  Unfused: two sequential forwards in the
        historical ``xa``-then-``xb`` order.
        """
        if self.fusion_active:
            fused = F.concat([xa, xb], axis=0)
            with precision(
                self._encoder(), bits, cache=self.quant_cache, views=2
            ):
                out = self._forward_online(fused)
            n = xa.shape[0]
            return out[:n], out[n:]
        return self._project(xa, bits), self._project(xb, bits)

    def _target(self, x: Tensor) -> Tensor:
        """BYOL target projection at full precision, detached."""
        target_encoder = self.method.target_encoder
        if count_quantized_modules(target_encoder) > 0:
            apply_precision(target_encoder, None)
        self.metrics.counter("target_forwards").inc()
        return self.method.target_forward(x)

    def _target_pair(self, xa: Tensor, xb: Tensor) -> Tuple[Tensor, Tensor]:
        """Both BYOL target projections; fused into one forward if safe."""
        if self.fusion_active:
            target_encoder = self.method.target_encoder
            if count_quantized_modules(target_encoder) > 0:
                apply_precision(target_encoder, None)
            self.metrics.counter("target_forwards").inc()
            out = self.method.target_forward(F.concat([xa, xb], axis=0))
            n = xa.shape[0]
            return out[:n], out[n:]
        return self._target(xa), self._target(xb)

    def _pair_loss(self, a: Tensor, b: Tensor) -> Tensor:
        """NT-Xent for SimCLR; symmetric detached regression for BYOL."""
        if self.is_byol:
            return 0.5 * (
                byol_loss(a, b.detach()) + byol_loss(b, a.detach())
            )
        return nt_xent(a, b, self.temperature)

    def _term(self, name: str, value: Tensor) -> Tensor:
        """Record a named loss term into telemetry and return it.

        Term names follow :meth:`CQVariant.loss_terms`; on the BYOL base
        "NCE" labels the corresponding regression term.  Each term feeds
        the labeled gauge series ``loss{term=...}`` and the per-step
        ``loss_terms`` event payload.
        """
        scalar = float(value.data)
        self._last_terms[name] = scalar
        self._term_taps[name] = value
        self.metrics.gauge("loss", term=name).set(scalar)
        return value

    # -- loss assembly (Fig. 1) -------------------------------------------------
    def compute_loss(self, view1: np.ndarray, view2: np.ndarray) -> Tensor:
        q1, q2 = self._sample_pair()
        v1, v2 = Tensor(view1), Tensor(view2)
        return self._loss_for_pair(v1, v2, q1, q2)

    def _sample_pair(self) -> Tuple[int, int]:
        """Draw this step's ``(q1, q2)`` and reset per-step term telemetry.

        Always runs eagerly (even when the step itself replays a plan) so
        the precision-sampling RNG stream advances identically in traced
        and eager runs.
        """
        if self.precision_sampler is not None:
            q1, q2 = self.precision_sampler.next_pair()
        else:
            q1, q2 = self.precision_set.sample_pair(self.rng)
        self._last_pair = (int(q1), int(q2))
        self.metrics.gauge("precision_q1").set(q1)
        self.metrics.gauge("precision_q2").set(q2)
        self._last_terms = {}
        self._term_taps = {}
        return int(q1), int(q2)

    def _loss_for_pair(self, v1: Tensor, v2: Tensor, q1: int, q2: int) -> Tensor:
        if self.variant is CQVariant.A:
            return self._loss_a(v1, v2, q1, q2)
        if self.variant is CQVariant.QUANT:
            return self._loss_quant(v1, q1, q2)
        return self._loss_bc(v1, v2, q1, q2)

    def _loss_a(self, v1, v2, q1, q2) -> Tensor:
        f = self._project(v1, q1)
        f_pos = self._project(v2, q2)
        if self.is_byol:
            t2, t1 = self._target_pair(v2, v1)
            loss = 0.5 * (byol_loss(f, t2) + byol_loss(f_pos, t1))
        else:
            loss = nt_xent(f, f_pos, self.temperature)
        return self._term("NCE(F_q1(Aug1(x)), F_q2(Aug2(x)))", loss)

    def _loss_quant(self, x, q1, q2) -> Tensor:
        f1 = self._project(x, q1)
        f2 = self._project(x, q2)
        return self._term("NCE(F_q1(x), F_q2(x))", self._pair_loss(f1, f2))

    def _loss_bc(self, v1, v2, q1, q2) -> Tensor:
        f1, f1_pos = self._project_pair(v1, v2, q1)
        f2, f2_pos = self._project_pair(v1, v2, q2)

        if self.is_byol:
            t1, t2 = self._target_pair(v1, v2)
            loss = self._term(
                "NCE(f1, f1+)",
                0.25 * (byol_loss(f1, t2) + byol_loss(f1_pos, t1)),
            ) + self._term(
                "NCE(f2, f2+)",
                0.25 * (byol_loss(f2, t2) + byol_loss(f2_pos, t1)),
            )
        else:
            loss = self._term(
                "NCE(f1, f1+)", nt_xent(f1, f1_pos, self.temperature)
            ) + self._term(
                "NCE(f2, f2+)", nt_xent(f2, f2_pos, self.temperature)
            )
        if self.variant is CQVariant.C:
            loss = (
                loss
                + self._term("NCE(f1, f2)", self._pair_loss(f1, f2))
                + self._term("NCE(f1+, f2+)", self._pair_loss(f1_pos, f2_pos))
            )
        return loss

    # -- training loop -------------------------------------------------------------
    def _parameters(self):
        if self.is_byol:
            return list(self.method.trainable_parameters())
        return list(self.method.parameters())

    def _engine_supported(self) -> bool:
        """Whether this step is safe to trace and replay.

        Dropout draws a fresh mask per forward and active range
        observers mutate their fitted range per forward — neither side
        effect survives a replay, so such steps are vetoed up front and
        run eagerly.  BatchNorm's running-buffer update would survive
        (the normalization op runs it inside its forward), but
        ``contains_batch_statistics`` vetoes BatchNorm models too, so the
        paper's BatchNorm configuration keeps running eagerly.
        """
        if contains_batch_statistics(self.method):
            return False
        return not any(
            isinstance(m, QuantizedModule) and m.observing
            for m in self.method.modules()
        )

    def _quant_state(self) -> Tuple:
        """Quantization config baked into a traced step's constants."""
        return tuple(
            (
                module.per_channel_weights,
                module.frozen_range,
                module.activation_range,
            )
            for module in self._encoder().modules()
            if isinstance(module, QuantizedModule)
        )

    def _plan_signature(self, v1: Tensor, v2: Tensor, q1: int, q2: int):
        """Everything that determines a traced step's topology.

        The sampled bit-widths themselves are *symbols* (rebound per
        replay); only their equality class matters here — a same-precision
        pair collapses the second quantize of each weight into a cache
        hit, which is a different graph than a mixed pair.
        """
        return (
            "cq-step",
            self.variant.name,
            self.is_byol,
            self.fusion_active,
            self.quant_cache.enabled,
            v1.shape,
            str(v1.data.dtype),
            v2.shape,
            str(v2.data.dtype),
            q1 == q2,
            self._quant_state(),
        )

    def _execute_step(self, v1: Tensor, v2: Tensor, q1: int, q2: int):
        """One loss+backward pass through the execution engine."""
        sig = self._plan_signature(v1, v2, q1, q2)
        if not self._engine_supported():
            self.engine.veto(sig)

        def eager_fn():
            cache_before = (self.quant_cache.hits, self.quant_cache.misses)
            fwd_before = (
                self.metrics.counter("encoder_forwards").value,
                self.metrics.counter("target_forwards").value,
            )
            loss = self._loss_for_pair(v1, v2, q1, q2)
            run_backward(loss)
            self._traced_effects[sig] = {
                "cache_hits": self.quant_cache.hits - cache_before[0],
                "cache_misses": self.quant_cache.misses - cache_before[1],
                "encoder_forwards": (
                    self.metrics.counter("encoder_forwards").value
                    - fwd_before[0]
                ),
                "target_forwards": (
                    self.metrics.counter("target_forwards").value
                    - fwd_before[1]
                ),
            }
            return loss, dict(self._term_taps)

        before = self.engine.stats()
        result = self.engine.execute(
            sig,
            inputs={"view1": v1, "view2": v2},
            symbols={"q1": q1, "q2": q2},
            eager_fn=eager_fn,
        )
        self._last_engine = {
            key: int(value - before[key])
            for key, value in self.engine.stats().items()
        }
        for key, delta in self._last_engine.items():
            if delta:
                self.metrics.counter(f"engine_{key}").inc(delta)
        if result.replayed:
            self._apply_replayed_telemetry(sig, result)
        return result

    def _apply_replayed_telemetry(self, sig, result) -> None:
        """Advance the counters a replayed step's eager twin would have.

        A replay never enters module ``forward`` Python, so the quant
        cache and forward counters don't move on their own; the deltas
        recorded while tracing this signature are applied instead, and
        per-term losses are read from the plan's tapped outputs.
        """
        effects = self._traced_effects.get(sig)
        if effects is not None:
            self.quant_cache.hits += int(effects["cache_hits"])
            self.quant_cache.misses += int(effects["cache_misses"])
            if effects["encoder_forwards"]:
                self.metrics.counter("encoder_forwards").inc(
                    effects["encoder_forwards"]
                )
            if effects["target_forwards"]:
                self.metrics.counter("target_forwards").inc(
                    effects["target_forwards"]
                )
        for name, value in result.outputs.items():
            scalar = float(value)
            self._last_terms[name] = scalar
            self.metrics.gauge("loss", term=name).set(scalar)

    def train_step(self, view1: np.ndarray, view2: np.ndarray) -> float:
        from ..nn.optim import global_grad_norm

        self.optimizer.zero_grad()
        hits0, misses0 = self.quant_cache.hits, self.quant_cache.misses
        q1, q2 = self._sample_pair()
        v1, v2 = Tensor(view1), Tensor(view2)
        result = self._execute_step(v1, v2, q1, q2)
        loss_value = float(result.root)
        self._last_cache = (
            self.quant_cache.hits - hits0,
            self.quant_cache.misses - misses0,
        )
        self.metrics.counter("quant_cache_hits").inc(self._last_cache[0])
        self.metrics.counter("quant_cache_misses").inc(self._last_cache[1])
        self.metrics.gauge("grad_norm").set(
            global_grad_norm(self._parameters())
        )
        self.optimizer.step()
        if self.is_byol:
            self.method.update_target()
        return loss_value

    def step_info(self) -> Dict[str, object]:
        """Sampled precisions, per-term losses, and grad norm for events."""
        info: Dict[str, object] = {}
        if self._last_pair is not None:
            info["q1"], info["q2"] = self._last_pair
        if self._last_terms:
            info["loss_terms"] = dict(self._last_terms)
        if self._last_cache is not None:
            info["quant_cache_hits"], info["quant_cache_misses"] = (
                self._last_cache
            )
        grad_norm = self.metrics.gauge("grad_norm").value
        if grad_norm is not None:
            info["grad_norm"] = grad_norm
        if self._last_engine is not None:
            for key, delta in self._last_engine.items():
                info[f"engine_{key}"] = delta
        return info

    def _history_dict(self) -> Dict[str, List[float]]:
        return {
            "loss": list(self.history),
            "grad_norm": list(self.metrics.gauge("grad_norm").series),
        }

    def _aux_state(self) -> Dict[str, object]:
        """Precision-sampling state: trainer RNG + schedule position.

        The sampled (q1, q2) sequence is part of the training trajectory,
        so a bit-exact resume must continue it exactly.  Older checkpoints
        that also stored a sampler's own RNG state still load; that entry
        is ignored.
        """
        aux = super()._aux_state()
        aux["quant_cache"] = self.quant_cache.stats()
        sampler = self.precision_sampler
        if sampler is not None and hasattr(sampler, "step_count"):
            aux["sampler_step_count"] = int(sampler.step_count)
        return aux

    def _load_aux_state(self, aux: Dict[str, object]) -> None:
        super()._load_aux_state(aux)
        cache_stats = aux.get("quant_cache")
        if cache_stats is not None:
            self.quant_cache.hits = int(cache_stats.get("hits", 0))
            self.quant_cache.misses = int(cache_stats.get("misses", 0))
        sampler = self.precision_sampler
        if "sampler_step_count" in aux and hasattr(sampler, "step_count"):
            sampler.step_count = int(aux["sampler_step_count"])

    def finalize(self) -> None:
        """Restore the encoder to full precision after pre-training."""
        apply_precision(self._encoder(), None)
        if self.is_byol and count_quantized_modules(self.method.target_encoder):
            apply_precision(self.method.target_encoder, None)
        self.quant_cache.clear()
        self.engine.invalidate()
