"""Experiment configuration tests."""

import pytest

from repro.experiments import EvalProtocol, MethodSpec, PretrainConfig


class TestMethodSpec:
    def test_baseline_detection(self):
        assert MethodSpec("SimCLR").is_baseline
        assert not MethodSpec("CQ-C", variant="C").is_baseline

    def test_base_validated(self):
        with pytest.raises(ValueError):
            MethodSpec("x", base="moco")

    def test_frozen_and_hashable(self):
        spec = MethodSpec("CQ-C", variant="C")
        assert hash(spec) == hash(MethodSpec("CQ-C", variant="C"))
        with pytest.raises(dataclasses_error()):
            spec.name = "other"


def dataclasses_error():
    import dataclasses

    return dataclasses.FrozenInstanceError


class TestPretrainConfig:
    def test_defaults_valid(self):
        config = PretrainConfig()
        assert config.epochs >= 1

    def test_epoch_validation(self):
        with pytest.raises(ValueError):
            PretrainConfig(epochs=0)

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            PretrainConfig(batch_size=1)

    def test_hashable_for_caching(self):
        a = PretrainConfig(encoder="resnet18")
        b = PretrainConfig(encoder="resnet18")
        assert hash(a) == hash(b)
        assert a == b


class TestEvalProtocol:
    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            EvalProtocol(label_fractions=(0.0,))
        with pytest.raises(ValueError):
            EvalProtocol(label_fractions=(1.5,))
