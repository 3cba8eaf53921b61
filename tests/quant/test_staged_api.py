"""The staged prepare() / calibrate() / convert() public surface."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.autograd import no_grad
from repro.nn.tensor import Tensor
from repro.quant import (
    EmaMinMaxObserver,
    IntConv2d,
    IntLinear,
    MinMaxObserver,
    QConv2d,
    QLinear,
    QuantizedModule,
    calibrate,
    convert,
    prepare,
)

BITS = 8


def nested_model(rng):
    """Two Linears with the SAME leaf name at different depths."""
    return nn.Sequential(
        nn.Sequential(nn.Linear(6, 6, rng=rng)),
        nn.Linear(6, 4, rng=rng),
    )


class TestPrepare:
    def test_swaps_and_shares_parameters(self, rng):
        conv = nn.Conv2d(3, 4, 3, rng=rng)
        model = nn.Sequential(conv, nn.ReLU(), nn.Linear(4, 2, rng=rng))
        prepare(model)
        assert isinstance(model[0], QConv2d)
        assert isinstance(model[2], QLinear)
        assert model[0].weight is conv.weight  # optimizer views stay valid

    def test_attaches_minmax_observer_by_default(self, rng):
        model = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)))
        assert isinstance(model[0].activation_observer, MinMaxObserver)

    def test_observer_variants(self, rng):
        ema = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)),
                      observer="ema")
        assert isinstance(ema[0].activation_observer, EmaMinMaxObserver)
        none = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)),
                       observer=None)
        assert none[0].activation_observer is None
        custom = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)),
                         observer=lambda: MinMaxObserver())
        assert isinstance(custom[0].activation_observer, MinMaxObserver)

    def test_unknown_observer_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown observer"):
            prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)),
                    observer="histogram")

    def test_idempotent(self, rng):
        model = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)))
        q = model[0]
        prepare(model)
        assert model[0] is q


class TestSkipCallback:
    def test_skip_receives_full_dotted_path(self, rng):
        """Regression: skip used to see only the leaf name, so two layers
        named ``0`` at different depths were indistinguishable."""
        seen = []

        def skip(name, module):
            seen.append(name)
            return False

        prepare(nested_model(rng), skip=skip)
        assert "0.0" in seen and "1" in seen

    def test_skip_can_target_one_nested_layer(self, rng):
        model = prepare(nested_model(rng),
                        skip=lambda name, m: name == "0.0")
        assert isinstance(model[0][0], nn.Linear)       # skipped
        assert not isinstance(model[0][0], QuantizedModule)
        assert isinstance(model[1], QLinear)            # same leaf name: kept


class TestCalibrate:
    def test_fits_ranges_and_returns_mapping(self, rng):
        model = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)))
        ranges = calibrate(
            model, [rng.normal(size=(4, 6)).astype(np.float32)], bits=BITS
        )
        assert set(ranges) == {"0"}
        lo, hi = ranges["0"]
        assert lo < hi
        assert model[0].activation_range == (lo, hi)

    def test_accepts_labelled_batches_and_caps(self, rng):
        model = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)))
        batches = [(rng.normal(size=(4, 6)).astype(np.float32), None)
                   for _ in range(5)]
        calibrate(model, batches, bits=BITS, max_batches=2)

    def test_requires_prepare(self, rng):
        with pytest.raises(ValueError, match="run prepare"):
            calibrate(nn.Linear(6, 4, rng=rng), [np.zeros((2, 6))],
                      bits=BITS)

    def test_requires_precision(self, rng):
        model = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)))
        with pytest.raises(ValueError, match="without a precision"):
            calibrate(model, [np.zeros((2, 6), dtype=np.float32)])

    def test_requires_batches(self, rng):
        model = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)))
        with pytest.raises(ValueError, match="no batches"):
            calibrate(model, [], bits=BITS)

    def test_restores_training_mode(self, rng):
        model = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)))
        model.train()
        calibrate(model, [rng.normal(size=(4, 6)).astype(np.float32)],
                  bits=BITS)
        assert model.training

    def test_observation_switched_off_afterwards(self, rng):
        model = prepare(nn.Sequential(nn.Linear(6, 4, rng=rng)))
        calibrate(model, [rng.normal(size=(4, 6)).astype(np.float32)],
                  bits=BITS)
        assert model[0].observing is False


class TestFullPipeline:
    def test_three_stages_produce_integer_engine(self, rng):
        class TinyEncoder(nn.Module):
            def __init__(self, rng):
                super().__init__()
                self.conv = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
                self.bn = nn.BatchNorm2d(4)
                self.act = nn.ReLU()
                self.head = nn.Linear(4 * 8 * 8, 5, rng=rng)

            def forward(self, x):
                h = self.act(self.bn(self.conv(x)))
                return self.head(F.flatten(h))

        model = TinyEncoder(rng)
        prepare(model)
        calibrate(
            model,
            [rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
             for _ in range(2)],
            bits=BITS,
        )
        convert(model, input_shape=(2, 3, 8, 8))
        kinds = {type(m).__name__ for m in model.modules()}
        assert "IntConv2d" in kinds and "IntLinear" in kinds
        assert "BatchNorm2d" not in kinds  # folded away
        with no_grad():
            out = model(Tensor(rng.normal(size=(2, 3, 8, 8)),
                               dtype=np.float64))
        assert out.data.shape == (2, 5)

    def test_lowered_types_exported(self):
        from repro.quant import lowered

        assert lowered.IntConv2d is IntConv2d
        assert lowered.IntLinear is IntLinear

