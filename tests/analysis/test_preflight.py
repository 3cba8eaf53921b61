"""Runner preflight: shapecheck runs before fit() and fails fast."""

import numpy as np
import pytest

import repro.analysis
import repro.experiments.runner as runner_mod
from repro.analysis import ShapeError
from repro.data.synthetic import make_cifar100_like
from repro.experiments.config import MethodSpec, PretrainConfig
from repro.experiments.runner import pretrain


@pytest.fixture(scope="module")
def data():
    return make_cifar100_like(num_classes=2, image_size=12,
                              train_per_class=8, seed=0)


def _config(**overrides):
    defaults = dict(encoder="resnet18", width_multiplier=0.0625,
                    epochs=1, batch_size=4, seed=0)
    defaults.update(overrides)
    return PretrainConfig(**defaults)


def _lying_encoder_factory(real_factory):
    """create_encoder stand-in whose models misreport feature_dim."""

    def build(*args, **kwargs):
        encoder = real_factory(*args, **kwargs)
        encoder.feature_dim += 1  # projector gets built for the lie
        return encoder

    return build


def test_preflight_default_on_catches_mismatch(monkeypatch, data):
    monkeypatch.setattr(
        runner_mod, "create_encoder",
        _lying_encoder_factory(runner_mod.create_encoder),
    )
    with pytest.raises(ShapeError) as excinfo:
        pretrain(MethodSpec("SimCLR"), data.train, _config())
    assert "feature_dim" in str(excinfo.value)
    # fail-fast means the layer-by-layer trace is part of the report
    assert "layers traced before the failure" in str(excinfo.value)


def test_preflight_failure_happens_before_any_forward(monkeypatch, data):
    from repro.nn.autograd import Function

    def boom(cls, *args, **kwargs):  # pragma: no cover - only on failure
        raise AssertionError("a forward pass ran before preflight failed")

    monkeypatch.setattr(
        runner_mod, "create_encoder",
        _lying_encoder_factory(runner_mod.create_encoder),
    )
    monkeypatch.setattr(Function, "apply", classmethod(boom))
    with pytest.raises(ShapeError):
        pretrain(MethodSpec("SimCLR"), data.train, _config())


def test_preflight_flag_controls_shapecheck_invocation(monkeypatch, data):
    calls = []
    real_shapecheck = repro.analysis.shapecheck

    def spy(model, input_shape, dtype="float32"):
        calls.append(tuple(input_shape))
        return real_shapecheck(model, input_shape, dtype=dtype)

    monkeypatch.setattr(repro.analysis, "shapecheck", spy)

    pretrain(MethodSpec("SimCLR"), data.train, _config())
    assert calls == [(4, 3, 12, 12)]  # (batch_size, *image shape)


def test_preflight_covers_byol_branch(monkeypatch, data):
    monkeypatch.setattr(
        runner_mod, "create_encoder",
        _lying_encoder_factory(runner_mod.create_encoder),
    )
    with pytest.raises(ShapeError):
        pretrain(MethodSpec("BYOL", base="byol"), data.train, _config())
