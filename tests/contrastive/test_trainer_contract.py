"""Cross-trainer contract: unified fit() signature + telemetry events.

All five trainers must accept ``fit(loader, epochs, *, scheduler=None,
callbacks=())``, return a history dict with a ``"loss"`` list, and emit
the full event lifecycle — so downstream orchestration can treat them
interchangeably.
"""

import warnings

import numpy as np
import pytest

from repro.contrastive import (
    BYOL,
    BYOLTrainer,
    ContrastiveQuantTrainer,
    MoCo,
    MoCoTrainer,
    SimCLRModel,
    SimSiam,
    SimSiamTrainer,
    TrainerBase,
)
from repro.models import resnet18
from repro.nn.optim import Adam, ConstantLR
from repro.telemetry import (
    Callback,
    EarlyDivergenceGuard,
    JsonlLogger,
    ThroughputMeter,
    TrainingDiverged,
    iter_records,
)

TRAINERS = ["simclr", "byol", "moco", "simsiam", "cq"]


def encoder():
    return resnet18(width_multiplier=0.0625, rng=np.random.default_rng(1))


def build(name, rng):
    from repro.contrastive import SimCLRTrainer

    if name == "simclr":
        model = SimCLRModel(encoder(), projection_dim=8, rng=rng)
        return SimCLRTrainer(model, Adam(list(model.parameters()), lr=1e-3))
    if name == "byol":
        model = BYOL(encoder(), projection_dim=8, rng=rng)
        return BYOLTrainer(
            model, Adam(list(model.trainable_parameters()), lr=1e-3)
        )
    if name == "moco":
        model = MoCo(encoder(), projection_dim=8, queue_size=16, rng=rng)
        return MoCoTrainer(
            model, Adam(list(model.trainable_parameters()), lr=1e-3),
            precision_set="6-16", rng=rng,
        )
    if name == "simsiam":
        model = SimSiam(encoder(), projection_dim=8, rng=rng)
        return SimSiamTrainer(
            model, Adam(list(model.parameters()), lr=1e-3),
            precision_set="6-16", rng=rng,
        )
    model = SimCLRModel(encoder(), projection_dim=8, rng=rng)
    return ContrastiveQuantTrainer(
        model, "C", "6-16", Adam(list(model.parameters()), lr=1e-3), rng=rng
    )


def loader(rng, n=4):
    v1 = rng.normal(size=(n, 3, 8, 8)).astype(np.float32)
    v2 = v1 + 0.05 * rng.normal(size=v1.shape).astype(np.float32)
    return [(v1, v2, np.zeros(n, dtype=np.int64))]


class EventCollector(Callback):
    def __init__(self):
        self.events = []

    def on_fit_start(self, trainer, payload):
        self.events.append(("on_fit_start", payload))

    def on_epoch_start(self, trainer, payload):
        self.events.append(("on_epoch_start", payload))

    def on_step(self, trainer, payload):
        self.events.append(("on_step", payload))

    def on_epoch_end(self, trainer, payload):
        self.events.append(("on_epoch_end", payload))

    def on_fit_end(self, trainer, payload):
        self.events.append(("on_fit_end", payload))


@pytest.mark.parametrize("name", TRAINERS)
class TestUnifiedContract:
    def test_is_trainer_base(self, name, rng):
        assert isinstance(build(name, rng), TrainerBase)

    def test_fit_signature_and_history_shape(self, name, rng):
        trainer = build(name, rng)
        scheduler = ConstantLR(trainer.optimizer)
        history = trainer.fit(
            loader(rng), epochs=2, scheduler=scheduler, callbacks=()
        )
        assert isinstance(history, dict)
        assert "loss" in history
        assert len(history["loss"]) == 2
        assert all(np.isfinite(v) for v in history["loss"])

    def test_emits_full_event_lifecycle(self, name, rng):
        trainer = build(name, rng)
        collector = EventCollector()
        trainer.fit(loader(rng), epochs=2, callbacks=(collector,))
        names = [e for e, _ in collector.events]
        assert names == [
            "on_fit_start",
            "on_epoch_start", "on_step", "on_epoch_end",
            "on_epoch_start", "on_step", "on_epoch_end",
            "on_fit_end",
        ]
        steps = [p for e, p in collector.events if e == "on_step"]
        assert [p["step"] for p in steps] == [0, 1]
        for payload in steps:
            assert np.isfinite(payload["loss"])
            assert payload["batch_size"] == 4
        fit_end = collector.events[-1][1]
        assert "loss" in fit_end["history"]

    def test_jsonl_logger_and_throughput_meter(self, name, rng, tmp_path):
        trainer = build(name, rng)
        logger = JsonlLogger(tmp_path, run_name=name)
        meter = ThroughputMeter()
        trainer.fit(loader(rng), epochs=1, callbacks=(logger, meter))
        records = list(iter_records(logger.path))
        assert records[0]["event"] == "fit_start"
        assert records[-1]["event"] == "fit_end"
        assert any(r["event"] == "step" for r in records)
        assert meter.steps == 1 and meter.images == 4

    def test_metrics_registry_populated(self, name, rng):
        trainer = build(name, rng)
        trainer.fit(loader(rng), epochs=1)
        assert trainer.metrics.counter("steps").value == 1
        assert trainer.metrics.counter("images").value == 4
        assert trainer.metrics.gauge("epoch_loss").value is not None

    def test_train_epoch_still_works(self, name, rng):
        trainer = build(name, rng)
        epoch_loss = trainer.train_epoch(loader(rng))
        assert np.isfinite(epoch_loss)
        assert trainer.history == [epoch_loss]


class TestBackwardCompatibility:
    def test_unknown_kwarg_still_typeerror(self, rng):
        trainer = build("simclr", rng)
        with pytest.raises(TypeError, match="unexpected keyword"):
            trainer.fit(loader(rng), 1, banana=True)


class TestCQTelemetry:
    def test_step_payload_has_precisions_and_terms(self, rng, tmp_path):
        trainer = build("cq", rng)
        logger = JsonlLogger(tmp_path, run_name="cq")
        trainer.fit(loader(rng), epochs=1, callbacks=(logger,))
        step = next(
            r for r in iter_records(logger.path) if r["event"] == "step"
        )
        assert step["q1"] in range(6, 17)
        assert step["q2"] in range(6, 17)
        assert set(step["loss_terms"]) == {
            "NCE(f1, f1+)", "NCE(f2, f2+)", "NCE(f1, f2)", "NCE(f1+, f2+)",
        }
        assert all(np.isfinite(v) for v in step["loss_terms"].values())
        assert np.isfinite(step["grad_norm"])

    def test_loss_terms_sum_to_loss(self, rng):
        trainer = build("cq", rng)
        v1, v2, _ = loader(rng)[0]
        loss = trainer.train_step(v1, v2)
        assert loss == pytest.approx(
            sum(trainer.step_info()["loss_terms"].values()), rel=1e-5
        )

    def test_grad_norms_is_read_only_view(self, rng):
        trainer = build("cq", rng)
        v1, v2, _ = loader(rng)[0]
        trainer.train_step(v1, v2)
        assert len(trainer.grad_norms) == 1
        assert np.isfinite(trainer.grad_norms[0])
        assert not hasattr(trainer.grad_norms, "append")
        with pytest.raises(AttributeError):
            trainer.grad_norms = []
        # backed by the grad_norm gauge series
        assert list(trainer.grad_norms) == list(
            trainer.metrics.gauge("grad_norm").series
        )

    def test_precision_gauges_recorded(self, rng):
        trainer = build("cq", rng)
        v1, v2, _ = loader(rng)[0]
        trainer.train_step(v1, v2)
        assert trainer.metrics.gauge("precision_q1").value in range(6, 17)
        assert trainer.metrics.gauge("precision_q2").value in range(6, 17)

    def test_divergence_guard_aborts_cq_run(self, rng):
        trainer = build("cq", rng)
        guard = EarlyDivergenceGuard(max_loss=1e-6)  # triggers immediately
        with pytest.raises(TrainingDiverged, match="exceeds max_loss"):
            trainer.fit(loader(rng), epochs=1, callbacks=(guard,))


class TestPerBaseStepExtras:
    def test_moco_logs_sampled_bits(self, rng):
        trainer = build("moco", rng)
        collector = EventCollector()
        trainer.fit(loader(rng), epochs=1, callbacks=(collector,))
        step = next(p for e, p in collector.events if e == "on_step")
        assert step["bits"] in range(6, 17)

    def test_simsiam_logs_sampled_pair(self, rng):
        trainer = build("simsiam", rng)
        collector = EventCollector()
        trainer.fit(loader(rng), epochs=1, callbacks=(collector,))
        step = next(p for e, p in collector.events if e == "on_step")
        assert step["q1"] in range(6, 17) and step["q2"] in range(6, 17)


class TestEmptyLoader:
    """An empty loader used to append nan to history silently; it must
    raise instead — a zero-batch epoch is always a data-pipeline bug."""

    @pytest.mark.parametrize("name", TRAINERS)
    def test_fit_raises_on_empty_loader(self, name, rng):
        trainer = build(name, rng)
        with pytest.raises(ValueError, match="empty loader"):
            trainer.fit([], epochs=1)

    def test_fit_with_data_still_works_after_failure(self, rng):
        trainer = build("simclr", rng)
        with pytest.raises(ValueError, match="empty loader"):
            trainer.fit([], epochs=1)
        history = trainer.fit(loader(rng), epochs=1)
        assert len(history["loss"]) == 1
