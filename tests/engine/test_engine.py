"""ExecutionEngine cache lifecycle: miss, hit, retrace, veto, fallback."""

import numpy as np
import pytest

from repro.engine import ExecutionEngine, run_backward
from repro.nn import functional as F
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor

SIG = ("step", (3, 4), "float32")


def arr(seed, shape=(3, 4)):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def make_step(engine, param, training=True):
    """One engine-driven step over ``x``; returns the EngineResult."""

    def step(x_array):
        x = Tensor(x_array)

        def eager():
            loss = F.sum(F.relu(F.mul(x, param)))
            if training:
                run_backward(loss)
            return loss, {"loss": loss}

        return engine.execute(SIG, {"x": x}, None, eager)

    return step


def test_invalid_mode_rejected():
    with pytest.raises(ValueError, match="engine mode"):
        ExecutionEngine(mode="jit")


def test_eager_mode_never_traces():
    engine = ExecutionEngine(mode="eager")
    step = make_step(engine, Parameter(arr(1)))
    for seed in (2, 3, 4):
        result = step(arr(seed))
        assert not result.replayed
    assert engine.stats() == {"plan_hits": 0, "plan_misses": 0,
                              "retraces": 0, "fallbacks": 0}


def test_first_call_traces_then_replays():
    engine = ExecutionEngine()
    param = Parameter(arr(1))
    step = make_step(engine, param)

    first = step(arr(2))
    assert first.executed == "eager"  # piggybacked trace returns eager data
    assert engine.stats()["plan_misses"] == 1

    param.grad = None
    second = step(arr(3))
    assert second.replayed
    assert engine.stats() == {"plan_hits": 1, "plan_misses": 1,
                              "retraces": 0, "fallbacks": 0}

    # replayed loss and grads are byte-identical to an eager recompute
    shadow = Parameter(param.data.copy())
    loss = F.sum(F.relu(F.mul(Tensor(arr(3)), shadow)))
    run_backward(loss)
    assert second.root.tobytes() == loss.data.tobytes()
    assert param.grad.tobytes() == shadow.grad.tobytes()


def test_replay_exposes_tapped_outputs():
    engine = ExecutionEngine()
    step = make_step(engine, Parameter(arr(1)))
    step(arr(2))
    result = step(arr(3))
    assert result.replayed
    assert result.outputs["loss"].shape == ()
    assert result.outputs["loss"].tobytes() == result.root.tobytes()


def test_invalidate_forces_retrace_and_counts_it():
    engine = ExecutionEngine()
    step = make_step(engine, Parameter(arr(1)))
    step(arr(2))
    engine.invalidate()
    assert engine.plan_for(SIG) is None
    result = step(arr(3))
    assert result.executed == "eager"
    assert engine.stats()["retraces"] == 1
    assert engine.stats()["plan_misses"] == 2
    assert step(arr(4)).replayed


def test_invalidate_keeps_only_the_dropped_signatures_known():
    # A serving engine sees a fresh signature (model version, batch
    # shape) in each cycle; its known set must not keep every one.
    engine = ExecutionEngine(training=False)
    param = Parameter(arr(1))

    def forward(sig):
        x = Tensor(arr(0, sig[1]))
        return engine.execute(sig, {"x": x}, None,
                              lambda: (F.relu(F.mul(x, param)), {}))

    shapes = ((3, 4), (2, 3, 4))
    for version in range(50):
        for shape in shapes:
            forward((version, shape))
        engine.invalidate()
    assert engine._known == {(49, shape) for shape in shapes}
    forward((0, (3, 4)))  # forgotten: a plain trace
    assert engine.stats()["retraces"] == 0
    forward((49, (3, 4)))  # its plan was dropped: a retrace
    assert engine.stats()["retraces"] == 1


def test_veto_routes_to_counted_fallback():
    engine = ExecutionEngine()
    step = make_step(engine, Parameter(arr(1)))
    step(arr(2))
    engine.veto(SIG)
    for seed in (3, 4):
        assert not step(arr(seed)).replayed
    assert engine.stats()["fallbacks"] == 2
    assert engine.stats()["retraces"] == 0


def test_untraceable_step_is_vetoed_after_one_attempt():
    engine = ExecutionEngine(training=False)

    def eager():
        return Tensor(np.ones(3, dtype=np.float32)), {}  # off-tape root

    for _ in range(3):
        result = engine.execute(SIG, {"x": Tensor(arr(0))}, None, eager)
        assert not result.replayed
    stats = engine.stats()
    assert stats["fallbacks"] == 3
    assert stats["plan_misses"] == 0
    assert engine.plan_for(SIG) is None


def test_inference_plan_goes_stale_on_version_bump():
    engine = ExecutionEngine(training=False)
    param = Parameter(arr(1))
    step = make_step(engine, param, training=False)

    step(arr(2))
    assert step(arr(3)).replayed

    param.data = param.data * 0.5  # noqa: RPR002 - version bump on purpose
    result = step(arr(4))
    assert result.executed == "eager"
    assert engine.stats()["retraces"] == 1

    refreshed = step(arr(5))
    assert refreshed.replayed
    eager = F.sum(F.relu(F.mul(Tensor(arr(5)), Tensor(param.data))))
    assert refreshed.root.tobytes() == eager.data.tobytes()


def test_distinct_signatures_get_distinct_plans():
    engine = ExecutionEngine()
    p_a, p_b = Parameter(arr(1)), Parameter(arr(2, shape=(2, 2)))

    def run(sig, param, x_array):
        x = Tensor(x_array)

        def eager():
            loss = F.sum(F.mul(x, param))
            run_backward(loss)
            return loss, {}

        return engine.execute(sig, {"x": x}, None, eager)

    run("a", p_a, arr(3))
    run("b", p_b, arr(4, shape=(2, 2)))
    assert engine.stats()["plan_misses"] == 2
    assert run("a", p_a, arr(5)).replayed
    assert run("b", p_b, arr(6, shape=(2, 2))).replayed
    assert engine.stats()["plan_hits"] == 2
