"""EmbeddingService: batching, hot swap, release, failure propagation."""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro import nn
from repro.nn.autograd import no_grad
from repro.nn.tensor import Tensor
from repro.quant import calibrate, convert, prepare
from repro.serving import EmbeddingService, ModelRegistry


def make_registry(seed=0, name="enc"):
    reg = ModelRegistry()
    reg.publish(name, nn.Linear(6, 3, rng=np.random.default_rng(seed)))
    return reg


def expected(model, x):
    model.eval()
    with no_grad():
        return np.asarray(model(Tensor(x[None], dtype=np.float64)).data)[0]


class TestRoundTrip:
    def test_embed_matches_direct_forward(self, rng):
        reg = make_registry()
        x = rng.normal(size=(6,))
        with EmbeddingService(reg, "enc", max_wait_ms=0.5) as svc:
            out = svc.embed(x)
        np.testing.assert_allclose(out, expected(reg.get("enc").model, x),
                                   rtol=1e-6, atol=1e-9)

    def test_many_requests_are_batched(self, rng):
        reg = make_registry()
        svc = EmbeddingService(reg, "enc", max_batch_size=8, max_wait_ms=20.0)
        with svc:
            xs = [rng.normal(size=(6,)) for _ in range(16)]
            outs = svc.embed_many(xs)
        assert len(outs) == 16
        batch_sizes = svc.metrics.histogram("serving.batch_size",
                                            model="enc")
        assert batch_sizes.max > 1  # coalescing actually happened
        assert svc.metrics.counter("serving.requests",
                                   model="enc").value == 16

    def test_mixed_shapes_grouped_not_crashed(self, rng):
        reg = ModelRegistry()

        class AnyShape(nn.Module):
            def forward(self, x):
                return x * 2.0

        reg.publish("enc", AnyShape())
        with EmbeddingService(reg, "enc", max_batch_size=16,
                              max_wait_ms=20.0) as svc:
            futures = [svc.submit(rng.normal(size=shape))
                       for shape in [(4,), (2, 3), (4,), (2, 3)]]
            outs = [f.result(10.0) for f in futures]
        assert outs[0].shape == (4,) and outs[1].shape == (2, 3)


class TestLifecycle:
    def test_submit_requires_running_service(self, rng):
        svc = EmbeddingService(make_registry(), "enc")
        with pytest.raises(RuntimeError, match="not running"):
            svc.submit(rng.normal(size=(6,)))

    def test_stop_fails_pending_requests(self, rng):
        svc = EmbeddingService(make_registry(), "enc")
        svc._running = True  # enqueue without a batcher thread
        future = svc.submit(rng.normal(size=(6,)))
        svc.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            future.result(1.0)

    def test_future_timeout(self):
        from repro.serving import ServingFuture

        with pytest.raises(TimeoutError):
            ServingFuture().result(0.01)


class TestHotSwap:
    def test_publish_swaps_model_without_restart(self, rng):
        reg = make_registry(seed=0)
        x = rng.normal(size=(6,))
        replacement = nn.Linear(6, 3, rng=np.random.default_rng(9))
        with EmbeddingService(reg, "enc", max_wait_ms=0.5) as svc:
            before = svc.embed(x)
            reg.publish("enc", replacement)
            after = svc.embed(x)
        np.testing.assert_allclose(after, expected(replacement, x),
                                   rtol=1e-6, atol=1e-9)
        assert not np.allclose(before, after)


class TestRelease:
    @pytest.mark.parametrize("engine", ["trace", "eager"])
    def test_serving_a_new_version_frees_the_old_model(self, rng, engine):
        reg = make_registry(seed=0)
        model = reg.get("enc").model
        old_model, old_weight = weakref.ref(model), weakref.ref(model.weight)
        del model
        x = rng.normal(size=(6,))
        with EmbeddingService(reg, "enc", max_wait_ms=0.5,
                              engine=engine) as svc:
            svc.embed(x)
            svc.embed(x)           # a traced plan now holds the weight
            reg.publish("enc", nn.Linear(6, 3, rng=np.random.default_rng(9)))
            svc.embed(x)           # first batch on version 2
            gc.collect()
            assert old_model() is None
            assert old_weight() is None


class TestFailures:
    def test_model_error_propagates_to_future(self, rng):
        reg = ModelRegistry()

        class Exploding(nn.Module):
            def forward(self, x):
                raise ValueError("bad batch")

        reg.publish("enc", Exploding())
        with EmbeddingService(reg, "enc", max_wait_ms=0.5) as svc:
            with pytest.raises(ValueError, match="bad batch"):
                svc.embed(rng.normal(size=(6,)))
            assert svc.metrics.counter("serving.errors",
                                       model="enc").value >= 1

    def test_service_survives_a_failing_batch(self, rng):
        reg = ModelRegistry()

        class FlakyOnWideInput(nn.Module):
            def forward(self, x):
                if x.data.shape[-1] > 4:
                    raise ValueError("too wide")
                return x * 1.0

        reg.publish("enc", FlakyOnWideInput())
        with EmbeddingService(reg, "enc", max_wait_ms=0.5) as svc:
            with pytest.raises(ValueError):
                svc.embed(rng.normal(size=(9,)))
            out = svc.embed(rng.normal(size=(3,)))  # still serving
        assert out.shape == (3,)


class TestIntegerEngineEndToEnd:
    def test_serves_converted_model(self, rng):
        model = nn.Sequential(nn.Linear(6, 4, rng=rng))
        prepare(model)
        calibrate(model,
                  [rng.normal(size=(4, 6)).astype(np.float32)
                   for _ in range(2)],
                  bits=8)
        convert(model, input_shape=(2, 6))
        reg = ModelRegistry()
        reg.publish("int-enc", model, tags=("int8",))
        x = rng.normal(size=(6,))
        with EmbeddingService(reg, "int-enc", max_wait_ms=0.5) as svc:
            out = svc.embed(x)
        np.testing.assert_allclose(out, expected(model, x), rtol=0, atol=0)
        assert out.dtype == np.float64

    def test_concurrent_clients_get_consistent_answers(self, rng):
        reg = make_registry()
        x = rng.normal(size=(6,))
        want = expected(reg.get("enc").model, x)
        results = [None] * 8

        def client(i, svc):
            results[i] = svc.embed(x)

        with EmbeddingService(reg, "enc", max_batch_size=4,
                              max_wait_ms=5.0) as svc:
            threads = [threading.Thread(target=client, args=(i, svc))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for out in results:
            np.testing.assert_allclose(out, want, rtol=1e-6, atol=1e-9)
