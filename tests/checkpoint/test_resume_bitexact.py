"""Bit-exact resume: interrupted-then-resumed == uninterrupted, exactly.

These are the ISSUE's headline integration tests: a run checkpointed at
an arbitrary epoch and resumed in a *fresh process state* (new trainer,
new loader, new scheduler — same seeds) reproduces the uninterrupted
history dict, per-step sampled precision pairs, and final parameters
with zero tolerance.  Covers every RNG stream in the loop: model init,
loader shuffle + augmentation, trainer precision sampling, and the
optimizer's float64 moments.
"""

import numpy as np
import pytest

from repro.checkpoint import CheckpointCallback, Checkpointer
from repro.quant import PrecisionSet
from repro.quant.schedule import CyclicPrecisionSchedule

from .helpers import (
    StepCollector,
    TOTAL_EPOCHS,
    assert_same_model_state,
    make_loader,
    make_scheduler,
    make_trainer,
    run_uninterrupted,
)

FAST_TRAINERS = ["simclr", "cq", "cq-fused", "cq-traced"]
OTHER_TRAINERS = ["byol", "moco", "simsiam", "noise"]


def interrupted_then_resumed(name, stop_after, tmp_path):
    """Train ``stop_after`` epochs, checkpoint, resume fresh to the end."""
    checkpointer = Checkpointer(tmp_path)
    first = make_trainer(name)
    first.fit(
        make_loader(),
        epochs=stop_after,
        scheduler=make_scheduler(first),
        callbacks=(CheckpointCallback(checkpointer),),
    )

    resumed = make_trainer(name)
    collector = StepCollector()
    history = resumed.fit(
        make_loader(),
        epochs=TOTAL_EPOCHS,
        scheduler=make_scheduler(resumed),
        callbacks=(collector,),
        resume_from=checkpointer,
    )
    return resumed, history, collector.steps


@pytest.mark.parametrize("name", FAST_TRAINERS)
@pytest.mark.parametrize("stop_after", [1, 2, 3])
def test_resume_is_bit_exact(name, stop_after, tmp_path):
    ref_trainer, ref_history, ref_steps = run_uninterrupted(name)
    trainer, history, steps = interrupted_then_resumed(
        name, stop_after, tmp_path
    )
    # History dicts compare with == : losses (and grad_norm for CQ) must
    # be float-identical, not merely close.
    assert history == ref_history
    assert steps == ref_steps[len(ref_steps) - len(steps):]
    assert_same_model_state(trainer, ref_trainer)


@pytest.mark.parametrize("name", OTHER_TRAINERS)
def test_resume_is_bit_exact_all_trainers(name, tmp_path):
    ref_trainer, ref_history, ref_steps = run_uninterrupted(name)
    trainer, history, steps = interrupted_then_resumed(name, 2, tmp_path)
    assert history == ref_history
    assert steps == ref_steps[len(ref_steps) - len(steps):]
    assert_same_model_state(trainer, ref_trainer)


def test_cq_grad_norm_history_continues(tmp_path):
    """The CQ grad_norm gauge series must splice, not restart."""
    _, ref_history, _ = run_uninterrupted("cq")
    _, history, _ = interrupted_then_resumed("cq", 2, tmp_path)
    assert history["grad_norm"] == ref_history["grad_norm"]
    assert len(history["grad_norm"]) == len(ref_history["loss"]) * 2


def test_cq_precision_pair_sequence_is_exact(tmp_path):
    """The sampled (q1, q2) stream is the paper's core randomness; the
    resumed tail must match the uninterrupted sequence element-wise."""
    _, _, ref_steps = run_uninterrupted("cq")
    _, _, steps = interrupted_then_resumed("cq", 1, tmp_path)
    ref_pairs = [(s["q1"], s["q2"]) for s in ref_steps]
    pairs = [(s["q1"], s["q2"]) for s in steps]
    assert pairs == ref_pairs[len(ref_pairs) - len(pairs):]


def test_optimizer_moments_restored_exactly(tmp_path):
    _, _, _ = run_uninterrupted("simclr")
    checkpointer = Checkpointer(tmp_path)
    first = make_trainer("simclr")
    first.fit(make_loader(), epochs=2,
              callbacks=(CheckpointCallback(checkpointer),))
    resumed = make_trainer("simclr")
    resumed.fit(make_loader(), epochs=2, resume_from=checkpointer)
    for a, b in zip(first.optimizer._m, resumed.optimizer._m):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.float64
    for a, b in zip(first.optimizer._v, resumed.optimizer._v):
        np.testing.assert_array_equal(a, b)
    assert first.optimizer.step_count == resumed.optimizer.step_count


def test_scheduler_position_restored(tmp_path):
    checkpointer = Checkpointer(tmp_path)
    first = make_trainer("simclr")
    sched_first = make_scheduler(first)
    first.fit(make_loader(), epochs=2, scheduler=sched_first,
              callbacks=(CheckpointCallback(checkpointer),))
    resumed = make_trainer("simclr")
    sched_resumed = make_scheduler(resumed)
    resumed.fit(make_loader(), epochs=TOTAL_EPOCHS,
                scheduler=sched_resumed, resume_from=checkpointer)
    assert sched_resumed.last_epoch == TOTAL_EPOCHS - 1
    assert resumed.optimizer.lr == pytest.approx(
        sched_resumed.get_lr(TOTAL_EPOCHS - 1)
    )


class TestPrecisionSamplerState:
    def _cq_with_sampler(self, sampler_factory):
        from repro.contrastive import ContrastiveQuantTrainer, SimCLRModel
        from repro.models import resnet18
        from repro.nn.optim import Adam

        encoder = resnet18(width_multiplier=0.0625,
                           rng=np.random.default_rng(5))
        model = SimCLRModel(encoder, projection_dim=8,
                            rng=np.random.default_rng(6))
        return ContrastiveQuantTrainer(
            model, "C", "2-8", Adam(list(model.parameters()), lr=1e-3),
            rng=np.random.default_rng(7),
            precision_sampler=sampler_factory(),
        )

    def _run(self, sampler_factory, tmp_path, split):
        pairs = []

        class PairTap(StepCollector):
            def on_step(self, trainer, payload):
                pairs.append((payload["q1"], payload["q2"]))

        if split is None:
            trainer = self._cq_with_sampler(sampler_factory)
            trainer.fit(make_loader(), epochs=TOTAL_EPOCHS,
                        callbacks=(PairTap(),))
        else:
            checkpointer = Checkpointer(tmp_path)
            trainer = self._cq_with_sampler(sampler_factory)
            trainer.fit(make_loader(), epochs=split,
                        callbacks=(CheckpointCallback(checkpointer),))
            trainer = self._cq_with_sampler(sampler_factory)
            trainer.fit(make_loader(), epochs=TOTAL_EPOCHS,
                        callbacks=(PairTap(),), resume_from=checkpointer)
        return pairs

    def test_cyclic_schedule_position_restored(self, tmp_path):
        factory = lambda: CyclicPrecisionSchedule(  # noqa: E731
            PrecisionSet.parse("2-8"), period=4
        )
        ref = self._run(factory, tmp_path / "a", split=None)
        resumed = self._run(factory, tmp_path / "b", split=2)
        assert resumed == ref[len(ref) - len(resumed):]
