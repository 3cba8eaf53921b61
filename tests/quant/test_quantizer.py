"""Eq. 10 linear quantizer: values, errors, STE gradients."""

import numpy as np
import pytest

from repro import nn
from repro.quant import fake_quantize, linear_quantize
from repro.quant.quantizer import LearnableQuantizer, quantization_step


class TestLinearQuantize:
    def test_step_formula(self):
        # S = range / (2^q - 1), Eq. 10.
        assert quantization_step(0.0, 1.0, 1) == pytest.approx(1.0)
        assert quantization_step(0.0, 1.0, 2) == pytest.approx(1.0 / 3.0)
        assert quantization_step(-1.0, 1.0, 4) == pytest.approx(2.0 / 15.0)

    def test_values_are_multiples_of_step(self, rng):
        x = rng.normal(size=1000).astype(np.float32)
        bits = 5
        step = quantization_step(x.min(), x.max(), bits)
        q = linear_quantize(x, bits)
        ratios = q / step
        np.testing.assert_allclose(ratios, np.round(ratios), atol=1e-3)

    def test_error_bounded_by_half_step(self, rng):
        x = rng.normal(size=1000).astype(np.float64)
        for bits in (2, 4, 8):
            step = quantization_step(x.min(), x.max(), bits)
            q = linear_quantize(x, bits)
            assert np.abs(x - q).max() <= step / 2 + 1e-12

    def test_high_precision_nearly_identity(self, rng):
        x = rng.normal(size=100).astype(np.float32)
        q = linear_quantize(x, 16)
        np.testing.assert_allclose(q, x, atol=1e-3)

    def test_more_bits_less_error(self, rng):
        x = rng.normal(size=500).astype(np.float64)
        errors = [
            np.sqrt(np.mean((x - linear_quantize(x, b)) ** 2))
            for b in (2, 4, 6, 8, 12)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_constant_array_unchanged(self):
        x = np.full(10, 3.14, dtype=np.float32)
        np.testing.assert_array_equal(linear_quantize(x, 4), x)

    def test_preserves_dtype(self, rng):
        x = rng.normal(size=10).astype(np.float32)
        assert linear_quantize(x, 4).dtype == np.float32

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            linear_quantize(np.ones(3), 0)


class TestFakeQuantizeSTE:
    def test_forward_quantizes(self, rng):
        x = nn.Tensor(rng.normal(size=(4, 4)))
        out = fake_quantize(x, 3)
        np.testing.assert_array_equal(out.data, linear_quantize(x.data, 3))

    def test_none_bits_is_identity(self, rng):
        x = nn.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        out = fake_quantize(x, None)
        assert out is x

    def test_straight_through_gradient(self, rng):
        x = nn.Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        fake_quantize(x, 2).sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((5, 5), dtype=np.float32))

    def test_gradient_flows_through_downstream_ops(self, rng):
        x = nn.Tensor(rng.normal(size=(3,)), requires_grad=True)
        w = nn.Tensor(rng.normal(size=(3,)), requires_grad=True)
        (fake_quantize(x, 4) * w).sum().backward()
        np.testing.assert_allclose(x.grad, w.data)
        # dL/dw sees the *quantized* x (noise injection).
        np.testing.assert_allclose(w.grad, linear_quantize(x.data, 4))

    def test_quantization_noise_decreases_with_bits(self, rng):
        x = nn.Tensor(rng.normal(size=(1000,)))
        noise = [
            float(np.abs(fake_quantize(x, b).data - x.data).mean())
            for b in (2, 4, 8, 16)
        ]
        assert all(a > b for a, b in zip(noise, noise[1:]))


class TestLearnableQuantizer:
    def test_forward_snaps_to_step_grid(self, rng):
        lq = LearnableQuantizer(init_step=0.1)
        x = nn.Tensor(rng.uniform(-0.5, 0.5, size=(20,)).astype(np.float32))
        out = lq(x, 8)
        ratios = out.data / 0.1
        np.testing.assert_allclose(ratios, np.round(ratios), atol=1e-4)

    def test_step_receives_gradient(self, rng):
        lq = LearnableQuantizer(init_step=0.1)
        x = nn.Tensor(rng.normal(size=(20,)), requires_grad=True)
        (lq(x, 4) ** 2.0).sum().backward()
        assert lq.step.grad is not None
        assert lq.step.grad.shape == (1,)

    def test_clipped_region_blocks_input_gradient(self):
        lq = LearnableQuantizer(init_step=0.01)
        x = nn.Tensor(np.array([100.0, 0.005], dtype=np.float32),
                      requires_grad=True)
        lq(x, 4).sum().backward()
        assert x.grad[0] == 0.0  # clipped at qmax
        assert x.grad[1] == 1.0  # in range

    def test_invalid_init_step(self):
        with pytest.raises(ValueError):
            LearnableQuantizer(init_step=0.0)

    def test_full_precision_passthrough(self, rng):
        lq = LearnableQuantizer()
        x = nn.Tensor(rng.normal(size=(5,)))
        assert lq(x, None) is x
