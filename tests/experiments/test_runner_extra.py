"""Additional runner coverage: seed averaging and misc paths."""

import numpy as np
import pytest

from repro import nn
from repro.data import make_cifar100_like
from repro.experiments import EvalProtocol, MethodSpec, PretrainConfig


@pytest.fixture(scope="module")
def data():
    return make_cifar100_like(num_classes=3, image_size=8,
                              train_per_class=10, test_per_class=4)


class TestRunMethodTable:
    def test_seed_averaging_changes_nothing_for_single_seed(self, data):
        config = PretrainConfig(encoder="resnet18", width_multiplier=0.0625,
                                epochs=1, batch_size=8)
        base = dict(label_fractions=(0.5,), precisions=(None,),
                    finetune_epochs=1, batch_size=8, seed=3)
        from repro.experiments import finetune_grid, pretrain

        outcome = pretrain(MethodSpec("SimCLR"), data.train, config)
        one = finetune_grid(outcome, data.train, data.test,
                            EvalProtocol(num_seeds=1, **base))
        same = finetune_grid(outcome, data.train, data.test,
                             EvalProtocol(num_seeds=1, **base))
        assert one == same

    def test_num_seeds_validated(self):
        with pytest.raises(ValueError):
            EvalProtocol(num_seeds=0)


class TestModuleApply:
    def test_apply_visits_all_modules(self, rng):
        model = nn.Sequential(nn.Linear(2, 2, rng=rng), nn.ReLU())
        visited = []
        model.apply(lambda m: visited.append(type(m).__name__))
        assert visited == ["Sequential", "Linear", "ReLU"]

    def test_apply_can_mutate(self, rng):
        model = nn.Sequential(nn.Linear(2, 2, rng=rng))

        def zero_weights(module):
            if isinstance(module, nn.Linear):
                module.weight.data[...] = 0.0

        model.apply(zero_weights)
        assert np.all(model[0].weight.data == 0.0)
