"""Traced serving path: replay fidelity, buffer escape, invalidation."""

import numpy as np

from repro import nn
from repro.serving import EmbeddingService, ModelRegistry

from .test_service import expected, make_registry


def engine_counters(svc, name="enc"):
    return {
        key: svc.metrics.counter(f"serving.engine_{key}", model=name).value
        for key in ("plan_hits", "plan_misses", "retraces", "fallbacks")
    }


def test_traced_serving_matches_eager_serving_exactly(rng):
    xs = [rng.normal(size=(6,)) for _ in range(6)]
    outs = {}
    for mode in ("trace", "eager"):
        with EmbeddingService(make_registry(), "enc", max_wait_ms=0.5,
                              engine=mode) as svc:
            outs[mode] = [svc.embed(x) for x in xs]
        if mode == "trace":
            assert svc.engine.stats()["plan_hits"] >= 1
    for traced, eager in zip(outs["trace"], outs["eager"]):
        assert traced.tobytes() == eager.tobytes()


def test_replayed_outputs_are_copies_not_arena_views(rng):
    # each replay allocates fresh outputs; results escaping to futures
    # must keep their values when the next replay runs.
    reg = make_registry()
    x1, x2 = rng.normal(size=(6,)), rng.normal(size=(6,))
    with EmbeddingService(reg, "enc", max_wait_ms=0.5, engine="trace") as svc:
        svc.embed(x1)              # trace
        first = svc.embed(x1)      # replay 1
        snapshot = first.copy()
        second = svc.embed(x2)     # replay 2 reuses the same buffers
    assert svc.engine.stats()["plan_hits"] >= 2
    assert np.array_equal(first, snapshot)
    assert not np.array_equal(first, second)


def test_engine_counters_surface_in_metrics(rng):
    with EmbeddingService(make_registry(), "enc", max_wait_ms=0.5,
                          engine="trace") as svc:
        for _ in range(3):
            svc.embed(rng.normal(size=(6,)))
        counters = engine_counters(svc)
    assert counters["plan_misses"] == 1
    assert counters["plan_hits"] == 2
    assert counters["fallbacks"] == 0


def test_hot_swap_retraces_new_model_version(rng):
    reg = make_registry(seed=0)
    replacement = nn.Linear(6, 3, rng=np.random.default_rng(9))
    x = rng.normal(size=(6,))
    with EmbeddingService(reg, "enc", max_wait_ms=0.5, engine="trace") as svc:
        svc.embed(x)
        svc.embed(x)               # replay of version 1
        reg.publish("enc", replacement)
        after = svc.embed(x)       # new registry key -> fresh signature
        counters = engine_counters(svc)
    assert counters["plan_misses"] == 2
    assert after.tobytes() == expected(replacement, x).tobytes()


def test_in_place_weight_rebind_goes_stale_and_retraces(rng):
    reg = make_registry(seed=0)
    model = reg.get("enc").model
    x = rng.normal(size=(6,))
    with EmbeddingService(reg, "enc", max_wait_ms=0.5, engine="trace") as svc:
        svc.embed(x)
        assert svc.embed(x).tobytes() == expected(model, x).tobytes()

        model.weight.data = model.weight.data * 0.5  # noqa: RPR002 - version bump on purpose
        refreshed = svc.embed(x)
        counters = engine_counters(svc)
    assert counters["retraces"] == 1
    assert refreshed.tobytes() == expected(model, x).tobytes()


def test_eager_engine_mode_serves_without_plans(rng):
    with EmbeddingService(make_registry(), "enc", max_wait_ms=0.5,
                          engine="eager") as svc:
        out = svc.embed(rng.normal(size=(6,)))
        stats = svc.engine.stats()
    assert out.shape == (3,)
    assert stats == {"plan_hits": 0, "plan_misses": 0,
                     "retraces": 0, "fallbacks": 0}


def test_converted_model_is_never_replayed_stale(rng):
    # Integer kernels compute off the autograd tape, so a plan would
    # record their outputs as constants and replay the traced input's
    # embedding for every request.  The trace must fail instead, and the
    # default engine must serve these models eagerly.
    from repro.models import resnet18
    from repro.quant import calibrate, convert, prepare

    model = resnet18(width_multiplier=1 / 16, rng=np.random.default_rng(0))
    prepare(model)
    calibrate(model, [rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
                      for _ in range(2)], bits=8)
    convert(model, input_shape=(2, 3, 16, 16))
    xs = [rng.normal(size=(3, 16, 16)) for _ in range(4)]
    xs += xs[:2]  # repeats would be plan hits if the trace succeeded
    outs = {}
    for mode in ("trace", "eager"):
        reg = ModelRegistry()
        reg.publish("int-enc", model)
        with EmbeddingService(reg, "int-enc", max_wait_ms=0.5,
                              engine=mode) as svc:
            outs[mode] = [svc.embed(x) for x in xs]
            if mode == "trace":
                counters = engine_counters(svc, "int-enc")
    assert counters["fallbacks"] >= 1
    assert counters["plan_hits"] == 0
    assert len({out.tobytes() for out in outs["eager"]}) == 4
    for traced, eager in zip(outs["trace"], outs["eager"]):
        assert traced.tobytes() == eager.tobytes()


def test_hot_swaps_do_not_accumulate_plans(rng):
    # Each version's plans hold slot arrays and saved state; a publish
    # must retire the superseded version's plans, not keep them forever.
    import gc
    import tracemalloc

    from repro.models import resnet18

    models = [resnet18(width_multiplier=1 / 16,
                       rng=np.random.default_rng(seed)) for seed in range(4)]
    sizes = (16, 12, 8, 20)  # one plan per input shape and version
    xs = [rng.normal(size=(3, s, s)) for s in sizes]
    reg = ModelRegistry()
    traced = []
    tracemalloc.start()
    try:
        with EmbeddingService(reg, "enc", max_wait_ms=0.5,
                              engine="trace") as svc:
            for model in models:
                reg.publish("enc", model)
                for x in xs:
                    svc.embed(x)
                gc.collect()
                traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert traced[-1] <= 1.5 * traced[0], traced
