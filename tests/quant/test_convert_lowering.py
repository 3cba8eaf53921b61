"""convert() lowering: integer kernels vs the fake-quant reference."""

import copy

import numpy as np
import pytest

from repro import nn
from repro.analysis.graph import audit_quantization
from repro.models import mobilenet_v2, resnet18
from repro.nn.autograd import no_grad
from repro.nn.tensor import Tensor
from repro.quant import (
    ConvertError,
    IntConv2d,
    IntLinear,
    LoweredModule,
    QLinear,
    QuantizedModule,
    calibrate,
    convert,
    freeze_reference,
    prepare,
    quantize_to_int,
)
from repro.quant.lowered import _choose_accumulator

BITS = 8


def _forward(model, x):
    model.eval()
    with no_grad():
        return np.asarray(model(Tensor(x, dtype=np.float64)).data,
                          dtype=np.float64)


def _calibrated(model, rng, shape, bits=BITS):
    prepare(model)
    batches = [rng.normal(size=shape).astype(np.float32) for _ in range(3)]
    calibrate(model, batches, bits=bits)
    return model


# -- per-layer equivalence ----------------------------------------------------

class TestPerLayerEquivalence:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_int_conv_matches_fake_quant(self, bits, rng):
        model = _calibrated(
            nn.Sequential(nn.Conv2d(3, 6, 3, padding=1, rng=rng)),
            rng, (4, 3, 8, 8), bits=bits,
        )
        fake = freeze_reference(copy.deepcopy(model))
        convert(model, input_shape=(2, 3, 8, 8))
        assert isinstance(model[0], IntConv2d)
        x = rng.normal(size=(4, 3, 8, 8))
        np.testing.assert_allclose(
            _forward(model, x), _forward(fake, x), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_int_linear_matches_fake_quant(self, bits, rng):
        model = _calibrated(
            nn.Sequential(nn.Linear(6, 4, rng=rng)), rng, (4, 6), bits=bits
        )
        fake = freeze_reference(copy.deepcopy(model))
        convert(model, input_shape=(2, 6))
        assert isinstance(model[0], IntLinear)
        x = rng.normal(size=(4, 6))
        np.testing.assert_allclose(
            _forward(model, x), _forward(fake, x), rtol=1e-12, atol=1e-12
        )

    def test_out_of_range_inputs_clip_identically(self, rng):
        model = _calibrated(
            nn.Sequential(nn.Linear(6, 4, rng=rng)), rng, (4, 6)
        )
        fake = freeze_reference(copy.deepcopy(model))
        convert(model, input_shape=(2, 6))
        # 10x outside the calibrated range: both paths must clip to the
        # same frozen grid edges
        x = 10.0 * rng.normal(size=(4, 6))
        np.testing.assert_allclose(
            _forward(model, x), _forward(fake, x), rtol=1e-12, atol=1e-12
        )


# -- full-model convert -------------------------------------------------------

def _build_encoder(kind):
    if kind == "resnet18":
        return resnet18(stem="cifar", width_multiplier=0.0625,
                        rng=np.random.default_rng(0), norm="batch")
    return mobilenet_v2(width_multiplier=0.125,
                        rng=np.random.default_rng(0))


@pytest.mark.parametrize("kind", ["resnet18", "mobilenet_v2"])
class TestConvertEncoders:
    def test_matches_fake_quant_reference(self, kind, rng):
        model = _calibrated(_build_encoder(kind), rng, (4, 3, 8, 8))
        fake = freeze_reference(copy.deepcopy(model))
        convert(model, input_shape=(2, 3, 8, 8))
        assert not any(isinstance(m, QuantizedModule)
                       for m in model.modules())
        assert sum(1 for m in model.modules()
                   if isinstance(m, LoweredModule)) > 0
        x = rng.normal(size=(2, 3, 8, 8))
        np.testing.assert_allclose(
            _forward(model, x), _forward(fake, x), rtol=1e-3, atol=1e-5
        )

    def test_aud001_full_coverage(self, kind, rng):
        model = _calibrated(_build_encoder(kind), rng, (4, 3, 8, 8))
        convert(model, input_shape=(2, 3, 8, 8))
        report = audit_quantization(model, kind)
        assert report.coverage == 1.0
        assert list(report.bypassing()) == []


class TestConvertContract:
    def test_idempotent(self, rng):
        model = _calibrated(
            nn.Sequential(nn.Linear(6, 4, rng=rng)), rng, (4, 6)
        )
        convert(model, input_shape=(2, 6))
        lowered = model[0]
        convert(model, input_shape=(2, 6))  # no-op on a converted model
        assert model[0] is lowered

    def test_requires_calibration(self, rng):
        model = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)))
        with pytest.raises(ConvertError, match="not ready"):
            convert(model, input_shape=(2, 6))

    def test_requires_prepare(self, rng):
        model = nn.Sequential(nn.Linear(6, 4, rng=rng))
        with pytest.raises(ConvertError, match="no quantized modules"):
            convert(model, input_shape=(2, 6))

    def test_divergence_is_detected(self, rng):
        model = _calibrated(
            nn.Sequential(nn.Linear(6, 4, rng=rng)), rng, (4, 6)
        )
        real_allclose = np.allclose
        try:
            np.allclose = lambda *a, **k: False
            with pytest.raises(ConvertError, match="diverges"):
                convert(model, input_shape=(2, 6))
        finally:
            np.allclose = real_allclose

    def test_retry_after_divergence_is_checked_again(self, rng):
        model = _calibrated(
            nn.Sequential(nn.Linear(6, 4, rng=rng)), rng, (4, 6)
        )
        real_allclose = np.allclose
        try:
            np.allclose = lambda *a, **k: False
            for _ in range(2):
                with pytest.raises(ConvertError, match="diverges"):
                    convert(model, input_shape=(2, 6))
                # the failed call left the frozen fake-quant reference
                assert isinstance(model[0], QLinear)
                assert model[0].frozen_range
        finally:
            np.allclose = real_allclose
        convert(model, input_shape=(2, 6))  # passes once the check does
        assert isinstance(model[0], IntLinear)

    def test_retry_after_coverage_failure_is_checked_again(self, rng):
        model = _calibrated(
            nn.Sequential(nn.Linear(6, 4, rng=rng), nn.ReLU(),
                          nn.Linear(4, 3, rng=rng)),
            rng, (4, 6),
        )
        setattr(model, "2", nn.Linear(4, 3, rng=rng))  # a float layer
        for _ in range(2):
            with pytest.raises(ConvertError, match="AUD001"):
                convert(model, input_shape=(2, 6))
            assert not any(isinstance(m, LoweredModule)
                           for m in model.modules())

    def test_freeze_reference_requires_prepare(self, rng):
        with pytest.raises(ConvertError, match="no quantized modules"):
            freeze_reference(nn.Sequential(nn.Linear(6, 4, rng=rng)))


# -- state_dict round trip ----------------------------------------------------

class TestLoweredStateDict:
    def test_int_linear_round_trips(self, rng):
        model = _calibrated(
            nn.Sequential(nn.Linear(6, 4, rng=rng)), rng, (4, 6)
        )
        convert(model, input_shape=(2, 6))
        src = model[0]
        fresh = IntLinear(6, 4, weight_bits=BITS, act_bits=BITS,
                          act_range=(-1.0, 1.0))
        fresh.load_state_dict(src.state_dict())
        x = rng.normal(size=(4, 6))
        assert np.array_equal(_forward(fresh, x), _forward(src, x))
        assert (fresh.act_lo, fresh.act_hi) == (src.act_lo, src.act_hi)

    def test_int_conv_round_trips(self, rng):
        model = _calibrated(
            nn.Sequential(nn.Conv2d(3, 6, 3, padding=1, rng=rng)),
            rng, (4, 3, 8, 8),
        )
        convert(model, input_shape=(2, 3, 8, 8))
        src = model[0]
        fresh = IntConv2d(3, 6, 3, padding=1, weight_bits=BITS,
                          act_bits=BITS, act_range=(-1.0, 1.0))
        fresh.load_state_dict(src.state_dict())
        x = rng.normal(size=(2, 3, 8, 8))
        assert np.array_equal(_forward(fresh, x), _forward(src, x))

    def test_load_invalidates_weight_operand_cache(self, rng):
        model = _calibrated(
            nn.Sequential(nn.Linear(6, 4, rng=rng)), rng, (4, 6)
        )
        convert(model, input_shape=(2, 6))
        src = model[0]
        fresh = IntLinear(6, 4, weight_bits=BITS, act_bits=BITS,
                          act_range=(-1.0, 1.0))
        x = rng.normal(size=(4, 6))
        _forward(fresh, x)  # populate the cache with all-zero weights
        fresh.load_state_dict(src.state_dict())
        assert np.array_equal(_forward(fresh, x), _forward(src, x))


# -- accumulator selection ----------------------------------------------------

class TestAccumulator:
    def test_thresholds(self):
        assert _choose_accumulator(127, 127, 27) is np.float32
        assert _choose_accumulator(127, 255, 576) is np.float64
        assert _choose_accumulator(2 ** 30, 2 ** 30, 16) is np.int64

    def test_float32_gemm_bit_identical_to_int64(self, rng):
        model = _calibrated(
            nn.Sequential(nn.Linear(6, 4, rng=rng)), rng, (4, 6)
        )
        convert(model, input_shape=(2, 6))
        mod = model[0]
        assert mod._weight_operand()[0] is np.float32
        x = rng.normal(size=(4, 6))
        out = _forward(mod, x)
        codes = mod.weight_q.astype(np.int64) + mod.weight_zero[:, None]
        x_codes, step, _ = quantize_to_int(x, mod.act_bits, mod.act_lo,
                                           mod.act_hi)
        acc = x_codes.astype(np.int64) @ codes.T
        expected = acc * (mod.weight_scale * step).reshape(1, -1)
        expected = expected + mod.bias.reshape(1, -1)
        assert np.array_equal(out, expected)

    def test_int64_carrier_still_exact(self, rng):
        mod = IntLinear(4, 2, weight_bits=28, act_bits=28,
                        act_range=(-4.0, 4.0), bias=False)
        codes = rng.integers(-2 ** 26, 2 ** 26, size=(2, 4)).astype(np.int64)
        zero = codes.min(axis=1)
        scale = np.full(2, 1e-8)
        mod._store_weight(codes, zero, scale)
        assert mod._weight_operand()[0] is np.int64
        x = rng.normal(size=(3, 4))
        out = _forward(mod, x)
        x_codes, step, _ = quantize_to_int(x, mod.act_bits, mod.act_lo,
                                           mod.act_hi)
        expected = (x_codes.astype(np.int64) @ codes.T) * \
            (scale * step).reshape(1, -1)
        assert np.array_equal(out, expected)

    def test_uint8_storage_for_8bit_weights(self, rng):
        model = _calibrated(
            nn.Sequential(nn.Conv2d(3, 6, 3, rng=rng)), rng, (4, 3, 8, 8)
        )
        convert(model, input_shape=(2, 3, 8, 8))
        assert model[0].weight_q.dtype == np.uint8
