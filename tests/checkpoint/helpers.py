"""Shared builders for checkpoint/resume tests.

Every builder is deterministic in its ``seed`` so two independently
constructed (trainer, loader, scheduler) triples follow identical
trajectories — the foundation the bit-exact resume assertions stand on.
"""

from __future__ import annotations

import numpy as np

from repro.contrastive import (
    BYOL,
    BYOLTrainer,
    ContrastiveQuantTrainer,
    MoCo,
    MoCoTrainer,
    NoiseContrastiveTrainer,
    SimCLRModel,
    SimCLRTrainer,
    SimSiam,
    SimSiamTrainer,
)
from repro.data import DataLoader
from repro.data.datasets import ArrayDataset
from repro.models import resnet18
from repro.nn.optim import Adam, CosineAnnealingLR
from repro.telemetry import Callback

SEED = 5
TOTAL_EPOCHS = 4
STEPS_PER_EPOCH = 2  # 8 samples / batch 4


def make_trainer(name="cq", seed=SEED):
    encoder = resnet18(width_multiplier=0.0625,
                       rng=np.random.default_rng(seed))
    model_rng = np.random.default_rng(seed + 1)
    trainer_rng = np.random.default_rng(seed + 2)
    if name == "simclr":
        model = SimCLRModel(encoder, projection_dim=8, rng=model_rng)
        return SimCLRTrainer(model, Adam(list(model.parameters()), lr=1e-3))
    if name == "byol":
        model = BYOL(encoder, projection_dim=8, rng=model_rng)
        return BYOLTrainer(
            model, Adam(list(model.trainable_parameters()), lr=1e-3)
        )
    if name == "moco":
        model = MoCo(encoder, projection_dim=8, queue_size=16, rng=model_rng)
        return MoCoTrainer(
            model, Adam(list(model.trainable_parameters()), lr=1e-3),
            precision_set="2-8", rng=trainer_rng,
        )
    if name == "simsiam":
        model = SimSiam(encoder, projection_dim=8, rng=model_rng)
        return SimSiamTrainer(
            model, Adam(list(model.parameters()), lr=1e-3),
            precision_set="2-8", rng=trainer_rng,
        )
    if name == "noise":
        model = SimCLRModel(encoder, projection_dim=8, rng=model_rng)
        return NoiseContrastiveTrainer(
            model, [0.0, 0.01, 0.05], Adam(list(model.parameters()), lr=1e-3),
            rng=trainer_rng,
        )
    if name == "cq-fused":
        # Batch-statistics-free model so fusion is actually active: the
        # fused engine (one 2N forward per same-precision pair + quant
        # cache) must resume bit-exactly too.
        encoder = resnet18(width_multiplier=0.0625,
                           rng=np.random.default_rng(seed), norm="group")
        model = SimCLRModel(encoder, projection_dim=8, rng=model_rng,
                            head_norm="layer")
        trainer = ContrastiveQuantTrainer(
            model, "C", "2-8", Adam(list(model.parameters()), lr=1e-3),
            rng=trainer_rng, fuse_views=True, weight_cache=True,
        )
        assert trainer.fusion_active
        return trainer
    if name == "cq-traced":
        # The tracing executor replays compiled plans by default; resumed
        # runs retrace from restored state, so plan replay must splice
        # into the reference trajectory bit-exactly.
        encoder = resnet18(width_multiplier=0.0625,
                           rng=np.random.default_rng(seed), norm="group")
        model = SimCLRModel(encoder, projection_dim=8, rng=model_rng,
                            head_norm="layer")
        trainer = ContrastiveQuantTrainer(
            model, "C", "2-8", Adam(list(model.parameters()), lr=1e-3),
            rng=trainer_rng, engine="trace",
        )
        assert trainer.engine.mode == "trace"
        return trainer
    model = SimCLRModel(encoder, projection_dim=8, rng=model_rng)
    return ContrastiveQuantTrainer(
        model, "C", "2-8", Adam(list(model.parameters()), lr=1e-3),
        rng=trainer_rng,
    )


def _two_views(image, rng):
    noise = rng.normal(0.0, 0.05, size=image.shape).astype(np.float32)
    return image + noise, image - noise


def make_loader(seed=SEED, n=8, batch=4):
    """Shuffling loader whose per-sample augmentation consumes loader RNG —
    both streams must survive a resume for trajectories to match."""
    data_rng = np.random.default_rng(seed + 99)
    images = data_rng.normal(size=(n, 3, 8, 8)).astype(np.float32)
    labels = np.zeros(n, dtype=np.int64)
    return DataLoader(
        ArrayDataset(images, labels),
        batch_size=batch,
        shuffle=True,
        drop_last=True,
        transform=_two_views,
        rng=np.random.default_rng(seed + 13),
    )


def make_seeded_loader(seed=SEED, n=8, batch=4, num_workers=0):
    """Order-independent loader over the same data as :func:`make_loader`.

    Augmentation streams derive from ``(seed, epoch, sample_index)``, so
    any ``num_workers`` value yields byte-identical batches — the resume
    tests use this to prove prefetching runs splice bit-exactly.
    """
    data_rng = np.random.default_rng(seed + 99)
    images = data_rng.normal(size=(n, 3, 8, 8)).astype(np.float32)
    labels = np.zeros(n, dtype=np.int64)
    return DataLoader(
        ArrayDataset(images, labels),
        batch_size=batch,
        shuffle=True,
        drop_last=True,
        transform=_two_views,
        seed=seed + 13,
        num_workers=num_workers,
    )


def make_scheduler(trainer, total=TOTAL_EPOCHS):
    return CosineAnnealingLR(trainer.optimizer, t_max=total)


class StepCollector(Callback):
    """Record per-step payload fields that define the training trajectory."""

    FIELDS = ("step", "loss", "q1", "q2", "bits", "grad_norm")

    def __init__(self):
        self.steps = []

    def on_step(self, trainer, payload):
        self.steps.append(
            {k: payload[k] for k in self.FIELDS if k in payload}
        )


class KillSwitch(Callback):
    """Simulate a crash by raising at a chosen global step (mid-epoch)."""

    class Crash(RuntimeError):
        pass

    def __init__(self, at_step):
        self.at_step = at_step

    def on_step(self, trainer, payload):
        if payload["step"] == self.at_step:
            raise self.Crash(f"injected crash at step {payload['step']}")


def run_uninterrupted(name="cq", epochs=TOTAL_EPOCHS, seed=SEED):
    """Reference trajectory: (trainer, history dict, per-step records)."""
    trainer = make_trainer(name, seed)
    collector = StepCollector()
    history = trainer.fit(
        make_loader(seed),
        epochs=epochs,
        scheduler=make_scheduler(trainer, epochs),
        callbacks=(collector,),
    )
    return trainer, history, collector.steps


def assert_same_model_state(trainer_a, trainer_b):
    state_a = trainer_a._training_module().state_dict()
    state_b = trainer_b._training_module().state_dict()
    assert set(state_a) == set(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key],
                                      err_msg=f"mismatch in {key}")
