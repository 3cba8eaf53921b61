"""A plan's records are the eager step's ops, one for one, in order.

Compilation keeps the traced records as they were recorded, so a plan
replays exactly the ops eager runs.  Here the op names of a compiled
plan are compared with the ``Function.apply`` calls the same step makes
on the eager engine, on a GroupNorm ResNet-18 CQ-C step with a LayerNorm
head (the ``train-replay`` model at a smaller shape): a mixed precision
pair, a same-precision pair, and an inference forward of the encoder.
"""

import contextlib

import numpy as np
import pytest

from repro.contrastive import ContrastiveQuantTrainer, SimCLRModel
from repro.engine import ExecutionEngine
from repro.models import resnet18
from repro.nn.autograd import Function, no_grad
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor

SHAPE = (4, 3, 8, 8)


@contextlib.contextmanager
def applied_ops():
    """Names of the ``Function.apply`` calls made inside the block.

    Each is logged once its forward has run, the order the tracer
    records them in.
    """
    names = []
    original = Function.__dict__["apply"]

    def apply(cls, *inputs, **kwargs):
        out = original.__func__(cls, *inputs, **kwargs)
        names.append(cls.__name__)
        return out

    Function.apply = classmethod(apply)
    try:
        yield names
    finally:
        Function.apply = original


class FixedPair:
    """A ``precision_sampler`` that draws the same ``(q1, q2)`` each step."""

    def __init__(self, pair):
        self.pair = pair

    def next_pair(self):
        return self.pair


def encoder():
    return resnet18(width_multiplier=0.0625, rng=np.random.default_rng(0),
                    norm="group")


def trainer(engine, pair):
    model = SimCLRModel(encoder(), projection_dim=8,
                        rng=np.random.default_rng(1), head_norm="layer")
    return ContrastiveQuantTrainer(
        model, "C", "4-16", Adam(model.parameters(), lr=1e-3),
        rng=np.random.default_rng(2), precision_sampler=FixedPair(pair),
        engine=engine,
    )


def views():
    rng = np.random.default_rng(3)
    return [rng.normal(size=SHAPE).astype(np.float32) for _ in range(2)]


def record_names(engine):
    (plan,) = engine._plans.values()
    return [record.op.__name__ for record in plan.records]


@pytest.mark.parametrize("pair", [(4, 16), (8, 8)], ids=["mixed", "same"])
def test_training_plan_records_are_the_eager_steps_ops(pair):
    eager = trainer("eager", pair)
    with applied_ops() as eager_ops:
        eager.train_step(*views())

    traced = trainer("trace", pair)
    traced.train_step(*views())

    assert record_names(traced.engine) == eager_ops
    # Two fused-view encoder forwards, each with eight residual joins.
    assert eager_ops.count("AddRelu") == 16


def test_inference_plan_records_are_the_eager_forwards_ops():
    model = encoder()
    model.eval()
    x = Tensor(views()[0])

    def forward():
        with no_grad():
            return model(x), {}

    with applied_ops() as eager_ops:
        forward()

    engine = ExecutionEngine(training=False)
    engine.execute("forward", {"x": x}, None, forward)

    assert record_names(engine) == eager_ops
    assert eager_ops.count("AddRelu") == 8
