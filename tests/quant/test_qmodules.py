"""Quantized modules, model conversion, and precision switching."""

import numpy as np
import pytest

from repro import nn
from repro.quant import (
    QConv2d,
    QLinear,
    apply_precision,
    count_quantized_modules,
    linear_quantize,
    prepare,
)


def small_model(rng):
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(4, 2, rng=rng),
    )


class TestQLinear:
    def test_full_precision_matches_float(self, rng):
        fp = nn.Linear(6, 3, rng=rng)
        q = QLinear.from_float(fp)  # noqa: RPR007 - twin constructor under test
        x = nn.Tensor(rng.normal(size=(4, 6)))
        np.testing.assert_allclose(q(x).data, fp(x).data, rtol=1e-6)

    def test_activation_quantization_applied(self, rng):
        fp = nn.Linear(4, 2, rng=rng)
        q = QLinear.from_float(fp)  # noqa: RPR007 - twin constructor under test
        q.set_precision(2)
        x = rng.normal(size=(3, 4)).astype(np.float32)
        expected = (
            linear_quantize(x, 2) @ linear_quantize(fp.weight.data, 2).T
            + fp.bias.data
        )
        np.testing.assert_allclose(q(nn.Tensor(x)).data, expected, rtol=1e-5)

    def test_shares_parameters_with_float(self, rng):
        fp = nn.Linear(4, 2, rng=rng)
        q = QLinear.from_float(fp)  # noqa: RPR007 - twin constructor under test
        assert q.weight is fp.weight
        fp.weight.data[...] = 1.0
        assert np.all(q.weight.data == 1.0)

    def test_gradients_reach_weight_through_quantization(self, rng):
        q = QLinear(4, 2, rng=rng)
        q.set_precision(4)
        q(nn.Tensor(rng.normal(size=(3, 4)))).sum().backward()
        assert q.weight.grad is not None
        assert q.bias.grad is not None

    def test_precision_validation(self, rng):
        q = QLinear(4, 2, rng=rng)
        with pytest.raises(ValueError):
            q.set_precision(0)
        with pytest.raises(ValueError):
            q.set_precision(64)


class TestQConv2d:
    def test_full_precision_matches_float(self, rng):
        fp = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
        q = QConv2d.from_float(fp)  # noqa: RPR007 - twin constructor under test
        x = nn.Tensor(rng.normal(size=(2, 3, 5, 5)))
        np.testing.assert_allclose(q(x).data, fp(x).data, rtol=1e-6)

    def test_low_precision_changes_output(self, rng):
        fp = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
        q = QConv2d.from_float(fp)  # noqa: RPR007 - twin constructor under test
        q.set_precision(2)
        x = nn.Tensor(rng.normal(size=(2, 3, 5, 5)))
        assert not np.allclose(q(x).data, fp(x).data)

    def test_higher_precision_closer_to_float(self, rng):
        fp = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
        q = QConv2d.from_float(fp)  # noqa: RPR007 - twin constructor under test
        x = nn.Tensor(rng.normal(size=(2, 3, 5, 5)))
        ref = fp(x).data
        gaps = []
        for bits in (2, 4, 8, 12):
            q.set_precision(bits)
            gaps.append(float(np.abs(q(x).data - ref).mean()))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_grouped_conversion(self, rng):
        fp = nn.Conv2d(4, 4, 3, groups=4, padding=1, rng=rng)
        q = QConv2d.from_float(fp)  # noqa: RPR007 - twin constructor under test
        x = nn.Tensor(rng.normal(size=(1, 4, 5, 5)))
        np.testing.assert_allclose(q(x).data, fp(x).data, rtol=1e-6)


class TestConversion:
    def test_quantize_model_replaces_layers(self, rng):
        model = prepare(small_model(rng))
        assert count_quantized_modules(model) == 2
        assert isinstance(model[0], QConv2d)
        assert isinstance(model[4], QLinear)

    def test_conversion_preserves_output(self, rng):
        model = small_model(rng)
        x = nn.Tensor(rng.normal(size=(2, 3, 6, 6)))
        model.eval()
        before = model(x).data.copy()
        prepare(model)
        np.testing.assert_allclose(model(x).data, before, rtol=1e-5)

    def test_conversion_preserves_parameter_identity(self, rng):
        model = small_model(rng)
        params_before = {id(p) for p in model.parameters()}
        prepare(model)
        params_after = {id(p) for p in model.parameters()}
        assert params_before == params_after

    def test_idempotent(self, rng):
        model = prepare(small_model(rng))
        prepare(model)
        assert count_quantized_modules(model) == 2

    def test_apply_precision_all(self, rng):
        model = prepare(small_model(rng))
        assert apply_precision(model, 8) == 2
        assert model[0].precision == 8
        assert model[4].precision == 8

    def test_apply_precision_back_to_fp(self, rng):
        model = prepare(small_model(rng))
        apply_precision(model, 4)
        apply_precision(model, None)
        assert model[0].precision is None

    def test_apply_precision_unconverted_raises(self, rng):
        with pytest.raises(ValueError, match="no quantized modules"):
            apply_precision(small_model(rng), 8)

    def test_precision_switch_changes_features(self, rng):
        model = prepare(small_model(rng))
        model.eval()
        x = nn.Tensor(rng.normal(size=(2, 3, 6, 6)))
        apply_precision(model, 4)
        low = model(x).data.copy()
        apply_precision(model, 16)
        high = model(x).data.copy()
        assert not np.allclose(low, high)

    def test_state_dict_survives_conversion(self, rng):
        model = small_model(rng)
        state = model.state_dict()
        prepare(model)
        assert set(model.state_dict()) == set(state)
