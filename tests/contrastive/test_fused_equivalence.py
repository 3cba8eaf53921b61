"""Fused multi-view forwards must be numerically equivalent to unfused.

On batch-statistics-free models (GroupNorm encoder, LayerNorm heads) the
fused engine — one 2N forward per same-precision view pair, per-view
activation quantization, cached weight quantization — produces
*byte-identical* losses to the historical two-forward path.  Gradients
agree to float32 accumulation order (einsum over 2N vs N+N reduces in a
different order), so they are compared with a tight allclose instead.
"""

import numpy as np
import pytest

from repro.contrastive import (
    BYOL,
    ContrastiveQuantTrainer,
    CQVariant,
    SimCLRModel,
)
from repro.models import resnet18
from repro.nn.optim import Adam
from repro.quant import count_quantized_modules

BATCH = 4
IMAGE = 8
VARIANTS = ["A", "B", "C", "QUANT"]
BASES = ["simclr", "byol"]


def make_model(base, seed=0):
    """GroupNorm encoder + LayerNorm heads: no batch statistics anywhere."""
    encoder = resnet18(width_multiplier=0.0625,
                       rng=np.random.default_rng(seed), norm="group")
    if base == "byol":
        return BYOL(encoder, projection_dim=8,
                    rng=np.random.default_rng(seed + 1), head_norm="layer")
    return SimCLRModel(encoder, projection_dim=8,
                       rng=np.random.default_rng(seed + 1), head_norm="layer")


def make_cq_trainer(base, variant, engine, seed=0):
    model = make_model(base, seed)
    params = (list(model.trainable_parameters()) if base == "byol"
              else list(model.parameters()))
    return ContrastiveQuantTrainer(
        model, variant, "2-8", Adam(params, lr=1e-3),
        rng=np.random.default_rng(seed + 2),
        fuse_views=engine, weight_cache=engine,
    )


def views(seed=42):
    rng = np.random.default_rng(seed)
    shape = (BATCH, 3, IMAGE, IMAGE)
    return (rng.normal(size=shape).astype(np.float32),
            rng.normal(size=shape).astype(np.float32))


def loss_and_grads(trainer):
    v1, v2 = views()
    trainer.optimizer.zero_grad()
    loss = trainer.compute_loss(v1, v2)
    loss.backward()
    grads = [
        None if p.grad is None else np.asarray(p.grad)
        for p in trainer.optimizer.parameters
    ]
    return loss.data.tobytes(), grads


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_fused_matches_unfused(base, variant):
    fused_trainer = make_cq_trainer(base, variant, engine=True)
    unfused_trainer = make_cq_trainer(base, variant, engine=False)
    assert fused_trainer.fusion_active
    assert not unfused_trainer.fusion_active

    fused_loss, fused_grads = loss_and_grads(fused_trainer)
    unfused_loss, unfused_grads = loss_and_grads(unfused_trainer)

    assert fused_loss == unfused_loss, "losses must be byte-identical"
    assert len(fused_grads) == len(unfused_grads)
    for a, b in zip(fused_grads, unfused_grads):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-6)


def test_batchnorm_vetoes_fusion():
    encoder = resnet18(width_multiplier=0.0625,
                       rng=np.random.default_rng(0))  # default BatchNorm
    model = SimCLRModel(encoder, projection_dim=8,
                        rng=np.random.default_rng(1))
    trainer = ContrastiveQuantTrainer(
        model, "C", "2-8", Adam(list(model.parameters()), lr=1e-3),
        rng=np.random.default_rng(2), fuse_views=True,
    )
    assert trainer.fuse_views
    assert not trainer.fusion_active


def test_cqc_fused_step_does_two_forwards_and_two_sweeps():
    """The ISSUE's headline budget: a fused+cached CQ-C step runs exactly
    2 encoder forwards and at most 2 weight-quant sweeps (one per sampled
    precision), versus 4 + 4 historically."""
    trainer = make_cq_trainer("simclr", "C", engine=True)
    num_quantized = count_quantized_modules(trainer._encoder())
    assert num_quantized > 0
    v1, v2 = views()

    for _ in range(3):  # budget holds on every step, not just the first
        forwards0 = trainer.metrics.counter("encoder_forwards").value
        misses0 = trainer.quant_cache.misses
        trainer.train_step(v1, v2)
        forwards = trainer.metrics.counter("encoder_forwards").value - forwards0
        sweeps = (trainer.quant_cache.misses - misses0) / num_quantized
        assert forwards == 2
        assert sweeps <= 2


def test_cqc_unfused_step_does_four_forwards():
    trainer = make_cq_trainer("simclr", "C", engine=False)
    num_quantized = count_quantized_modules(trainer._encoder())
    v1, v2 = views()
    trainer.train_step(v1, v2)
    assert trainer.metrics.counter("encoder_forwards").value == 4
    assert trainer.quant_cache.misses / num_quantized == 4


def test_cache_stats_surface_in_step_info():
    trainer = make_cq_trainer("simclr", "C", engine=True)
    trainer.train_step(*views())
    info = trainer.step_info()
    assert "quant_cache_hits" in info
    assert "quant_cache_misses" in info
    assert info["quant_cache_hits"] + info["quant_cache_misses"] > 0
