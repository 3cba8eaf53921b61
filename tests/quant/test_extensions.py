"""Extension features: per-channel quantization and precision schedules."""

import numpy as np
import pytest

from repro import nn
from repro.quant import (
    CyclicPrecisionSchedule,
    PrecisionSet,
    QConv2d,
    fake_quantize_per_channel,
    linear_quantize,
    linear_quantize_per_channel,
)


class TestPerChannelQuantize:
    def test_each_channel_gets_own_range(self, rng):
        # Channel 0 has tiny range, channel 1 huge; per-tensor quantization
        # at low bits crushes channel 0, per-channel preserves it.
        w = np.stack([
            rng.uniform(-0.01, 0.01, size=(4, 3, 3)),
            rng.uniform(-10.0, 10.0, size=(4, 3, 3)),
        ]).astype(np.float32)
        per_tensor = linear_quantize(w, 3)
        per_channel = linear_quantize_per_channel(w, 3, axis=0)
        err_tensor = np.abs(per_tensor[0] - w[0]).mean()
        err_channel = np.abs(per_channel[0] - w[0]).mean()
        assert err_channel < err_tensor

    def test_matches_per_tensor_on_single_channel(self, rng):
        w = rng.normal(size=(1, 8)).astype(np.float64)
        np.testing.assert_allclose(
            linear_quantize_per_channel(w, 4, axis=0),
            linear_quantize(w, 4),
            rtol=1e-6,
        )

    def test_constant_channel_unchanged(self, rng):
        w = rng.normal(size=(3, 5)).astype(np.float32)
        w[1] = 2.5
        out = linear_quantize_per_channel(w, 4, axis=0)
        np.testing.assert_array_equal(out[1], w[1])

    def test_axis_validation(self, rng):
        with pytest.raises(ValueError):
            linear_quantize_per_channel(np.zeros((2, 2)), 4, axis=5)

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            linear_quantize_per_channel(np.zeros((2, 2)), 0)

    def test_ste_gradient(self, rng):
        x = nn.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        fake_quantize_per_channel(x, 3).sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4),
                                                      dtype=np.float32))

    def test_none_bits_identity(self, rng):
        x = nn.Tensor(rng.normal(size=(3, 4)))
        assert fake_quantize_per_channel(x, None) is x

    def test_qconv_per_channel_mode(self, rng):
        conv = QConv2d(3, 4, 3, padding=1, rng=rng)
        conv.set_precision(3)
        x = nn.Tensor(rng.normal(size=(1, 3, 6, 6)))
        per_tensor_out = conv(x).data.copy()
        conv.per_channel_weights = True
        per_channel_out = conv(x).data.copy()
        assert not np.allclose(per_tensor_out, per_channel_out)


class TestSchedules:
    def test_cyclic_covers_extremes(self):
        sched = CyclicPrecisionSchedule(PrecisionSet.parse("2-8"), period=8)
        seen = set()
        for _ in range(16):
            q1, q2 = sched.next_pair()
            seen.update((q1, q2))
        assert 2 in seen
        assert 8 in seen

    def test_cyclic_is_periodic(self):
        a = CyclicPrecisionSchedule(PrecisionSet.parse("2-8"), period=6)
        first_cycle = [a.next_pair() for _ in range(6)]
        second_cycle = [a.next_pair() for _ in range(6)]
        assert first_cycle == second_cycle

    def test_pair_members_differ_by_half_cycle(self):
        sched = CyclicPrecisionSchedule(PrecisionSet.parse("2-16"),
                                        period=10)
        q1, q2 = sched.next_pair()
        assert q1 != q2  # half a cycle apart on a wide set

    def test_cyclic_ramps_low_to_high_each_cycle(self):
        # CPT: each cycle rises from the lowest to the highest precision
        # and restarts; the half-cycle partner never equals q1 on the
        # ablation's 2-8 set.
        sched = CyclicPrecisionSchedule(PrecisionSet.parse("2-8"), period=16)
        for _ in range(2):
            cycle = [sched.next_pair() for _ in range(16)]
            q1s = [q1 for q1, _ in cycle]
            assert q1s[0] == 2 and q1s[-1] == 8
            assert all(a <= b for a, b in zip(q1s, q1s[1:]))
            assert all(q1 != q2 for q1, q2 in cycle)

    def test_period_validation(self):
        with pytest.raises(ValueError):
            CyclicPrecisionSchedule(PrecisionSet.parse("2-8"), period=1)

    def test_values_snap_to_set_members(self):
        sparse = PrecisionSet([2, 8, 16])
        sched = CyclicPrecisionSchedule(sparse, period=7)
        for _ in range(14):
            q1, q2 = sched.next_pair()
            assert q1 in sparse and q2 in sparse

    def test_trainer_accepts_schedule(self, rng):
        from repro.contrastive import ContrastiveQuantTrainer, SimCLRModel
        from repro.models import resnet18
        from repro.nn.optim import Adam

        encoder = resnet18(width_multiplier=0.0625, rng=rng)
        model = SimCLRModel(encoder, projection_dim=8, rng=rng)
        sched = CyclicPrecisionSchedule(PrecisionSet.parse("2-8"), period=4)
        trainer = ContrastiveQuantTrainer(
            model, "C", "2-8", Adam(list(model.parameters()), lr=1e-3),
            rng=rng, precision_sampler=sched,
        )
        v = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        loss = trainer.train_step(v, v + 0.01)
        assert np.isfinite(loss)
        assert sched.step_count == 1
