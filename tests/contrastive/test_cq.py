"""Contrastive Quant trainer: variant semantics, precision switching."""

import numpy as np
import pytest

from repro import nn
from repro.contrastive import (
    BYOL,
    ContrastiveQuantTrainer,
    CQVariant,
    SimCLRModel,
)
from repro.models import resnet18
from repro.nn.optim import Adam, SGD
from repro.quant import PrecisionSet, QConv2d, count_quantized_modules


def simclr_method(rng):
    encoder = resnet18(width_multiplier=0.0625, rng=rng)
    return SimCLRModel(encoder, projection_dim=8, rng=rng)


def byol_method(rng):
    return BYOL(resnet18(width_multiplier=0.0625, rng=rng),
                projection_dim=8, rng=rng)


def make_trainer(rng, variant="C", method=None, base="simclr", **kwargs):
    method = method or (simclr_method(rng) if base == "simclr"
                        else byol_method(rng))
    if base == "simclr":
        params = list(method.parameters())
    else:
        params = list(method.trainable_parameters())
    opt = Adam(params, lr=1e-3)
    return ContrastiveQuantTrainer(
        method, variant, "6-16", opt, rng=rng, **kwargs
    )


def views(rng, n=4):
    v1 = rng.normal(size=(n, 3, 8, 8)).astype(np.float32)
    v2 = v1 + 0.05 * rng.normal(size=v1.shape).astype(np.float32)
    return v1, v2


class TestCQVariant:
    def test_parse_strings(self):
        assert CQVariant.parse("cq-a") is CQVariant.A
        assert CQVariant.parse("B") is CQVariant.B
        assert CQVariant.parse("CQ_C") is CQVariant.C
        assert CQVariant.parse("quant") is CQVariant.QUANT

    def test_parse_passthrough(self):
        assert CQVariant.parse(CQVariant.A) is CQVariant.A

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown CQ variant"):
            CQVariant.parse("cq-z")

    def test_loss_term_counts_match_paper(self):
        # Fig. 1: CQ-A has 1 term, CQ-B has 2, CQ-C has 4, CQ-Quant has 1.
        assert len(CQVariant.A.loss_terms()) == 1
        assert len(CQVariant.B.loss_terms()) == 2
        assert len(CQVariant.C.loss_terms()) == 4
        assert len(CQVariant.QUANT.loss_terms()) == 1

    def test_cq_c_is_superset_of_cq_b(self):
        assert set(CQVariant.B.loss_terms()) < set(CQVariant.C.loss_terms())


class TestTrainerConstruction:
    def test_encoder_auto_quantized(self, rng):
        trainer = make_trainer(rng)
        assert count_quantized_modules(trainer.method.encoder) > 0

    def test_projector_not_quantized(self, rng):
        trainer = make_trainer(rng)
        assert count_quantized_modules(trainer.method.projector) == 0

    def test_already_quantized_encoder_accepted(self, rng):
        from repro.quant import prepare

        method = simclr_method(rng)
        prepare(method.encoder)
        count = count_quantized_modules(method.encoder)
        trainer = ContrastiveQuantTrainer(
            method, "C", "6-16", Adam(list(method.parameters()), lr=1e-3),
            rng=rng,
        )
        assert count_quantized_modules(trainer.method.encoder) == count

    def test_precision_set_parsed(self, rng):
        trainer = make_trainer(rng)
        assert trainer.precision_set == PrecisionSet.parse("6-16")

    def test_rejects_non_method(self, rng):
        with pytest.raises(TypeError):
            ContrastiveQuantTrainer(
                resnet18(width_multiplier=0.0625, rng=rng),
                "C", "6-16",
                Adam([nn.Parameter(np.zeros(1, dtype=np.float32))], lr=1e-3),
            )

    def test_byol_online_encoder_quantized_target_not(self, rng):
        trainer = make_trainer(rng, base="byol")
        assert count_quantized_modules(trainer.method.online_encoder) > 0
        assert count_quantized_modules(trainer.method.target_encoder) == 0


@pytest.mark.parametrize("variant", ["A", "B", "C", "QUANT"])
class TestAllVariantsTrain:
    def test_simclr_loss_finite_and_trains(self, rng, variant):
        trainer = make_trainer(rng, variant=variant)
        v1, v2 = views(rng)
        loss = trainer.train_step(v1, v2)
        assert np.isfinite(loss)
        assert len(trainer.metrics.gauge("grad_norm").series) == 1

    def test_byol_loss_finite_and_trains(self, rng, variant):
        trainer = make_trainer(rng, variant=variant, base="byol")
        v1, v2 = views(rng)
        loss = trainer.train_step(v1, v2)
        assert np.isfinite(loss)


class TestLossSemantics:
    def test_cq_c_loss_at_least_cq_b(self, rng):
        """CQ-C = CQ-B + two non-negative NT-Xent terms (same seed)."""
        method = simclr_method(rng)
        state = method.state_dict()
        losses = {}
        for variant in ("B", "C"):
            method.load_state_dict(state)
            trainer = ContrastiveQuantTrainer(
                method, variant, "6-16",
                Adam(list(method.parameters()), lr=1e-3),
                rng=np.random.default_rng(0),
            )
            v1, v2 = views(np.random.default_rng(1))
            losses[variant] = float(trainer.compute_loss(v1, v2).data)
        assert losses["C"] > losses["B"]

    def test_quant_variant_ignores_second_view(self, rng):
        """CQ-Quant contrasts precisions of the *same* input (Sec. 4.5)."""
        method = simclr_method(rng)
        trainer = ContrastiveQuantTrainer(
            method, "QUANT", "6-16",
            Adam(list(method.parameters()), lr=1e-3),
            rng=np.random.default_rng(0),
        )
        v1, _ = views(np.random.default_rng(1))
        method.eval()
        a = float(trainer.compute_loss(v1, v1).data)
        trainer.rng = np.random.default_rng(0)
        unrelated = np.random.default_rng(9).normal(
            size=v1.shape
        ).astype(np.float32)
        b = float(trainer.compute_loss(v1, unrelated).data)
        assert a == pytest.approx(b, rel=1e-5)

    def test_precision_actually_switches_during_loss(self, rng):
        trainer = make_trainer(rng, variant="A")
        seen = []
        qconvs = [m for m in trainer.method.encoder.modules()
                  if isinstance(m, QConv2d)]
        original = trainer._project

        def spy(x, bits):
            seen.append(bits)
            return original(x, bits)

        trainer._project = spy
        # Probe the precision a quantized module actually runs with.
        applied = []
        probed = qconvs[0]
        orig_forward = probed.forward

        def probe(x):
            applied.append(probed.precision)
            return orig_forward(x)

        probed.forward = probe
        v1, v2 = views(rng)
        trainer.compute_loss(v1, v2)
        assert len(seen) == 2
        assert all(b in trainer.precision_set for b in seen)
        assert applied == seen
        # Scoped application: the context restores full precision on exit.
        assert probed.precision is None

    def test_variant_bc_does_four_forwards(self, rng):
        trainer = make_trainer(rng, variant="C")
        count = [0]
        original = trainer._project

        def spy(x, bits):
            count[0] += 1
            return original(x, bits)

        trainer._project = spy
        v1, v2 = views(rng)
        trainer.compute_loss(v1, v2)
        assert count[0] == 4


class TestTrainingMachinery:
    def test_fit_records_history(self, rng):
        from repro.data import DataLoader, TwoViewTransform, make_cifar100_like
        from repro.data import simclr_augmentations

        trainer = make_trainer(rng, variant="C")
        data = make_cifar100_like(num_classes=2, image_size=8,
                                  train_per_class=4, test_per_class=2)
        loader = DataLoader(
            data.train, batch_size=4, shuffle=True,
            transform=TwoViewTransform(simclr_augmentations(0.5)), rng=rng,
        )
        out = trainer.fit(loader, epochs=2)
        assert len(out["loss"]) == 2
        assert all(np.isfinite(v) for v in out["loss"])

    def test_finalize_restores_full_precision(self, rng):
        trainer = make_trainer(rng, variant="C")
        v1, v2 = views(rng)
        trainer.train_step(v1, v2)
        trainer.finalize()
        qconvs = [m for m in trainer.method.encoder.modules()
                  if isinstance(m, QConv2d)]
        assert all(m.precision is None for m in qconvs)

    def test_byol_target_updated_each_step(self, rng):
        trainer = make_trainer(rng, base="byol", variant="C")
        before = next(trainer.method.target_encoder.parameters()).data.copy()
        v1, v2 = views(rng)
        trainer.train_step(v1, v2)
        after = next(trainer.method.target_encoder.parameters()).data
        assert not np.array_equal(before, after)

    def test_deterministic_precision_sampling(self):
        rng_data = np.random.default_rng(2)
        losses = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            method = simclr_method(np.random.default_rng(1))
            trainer = ContrastiveQuantTrainer(
                method, "A", "4-16",
                SGD(list(method.parameters()), lr=0.0),
                rng=rng,
            )
            v1, v2 = views(np.random.default_rng(3))
            method.eval()
            losses.append(float(trainer.compute_loss(v1, v2).data))
        assert losses[0] == losses[1]
