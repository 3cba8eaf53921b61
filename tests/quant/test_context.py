"""PrecisionContext / apply_precision — the scoped precision API."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor
from repro.quant import (
    QuantCache,
    PrecisionContext,
    apply_precision,
    precision,
    prepare,
)
from repro.quant.cache import active_cache, active_views
from repro.quant.qmodules import QuantizedModule


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    return prepare(nn.Sequential(
        nn.Linear(6, 5, rng=rng),
        nn.ReLU(),
        nn.Linear(5, 3, rng=rng),
    ))


def qmodules(model):
    return [m for m in model.modules() if isinstance(m, QuantizedModule)]


class TestPrecisionContext:
    def test_applies_and_restores(self):
        model = small_model()
        assert all(m.precision is None for m in qmodules(model))
        with precision(model, 4):
            assert all(m.precision == 4 for m in qmodules(model))
        assert all(m.precision is None for m in qmodules(model))

    def test_restores_previous_nonstandard_precision(self):
        model = small_model()
        apply_precision(model, 8)
        with precision(model, 2):
            assert all(m.precision == 2 for m in qmodules(model))
        assert all(m.precision == 8 for m in qmodules(model))

    def test_nested_contexts_compose(self):
        model = small_model()
        with precision(model, 8):
            with precision(model, 2):
                assert all(m.precision == 2 for m in qmodules(model))
            assert all(m.precision == 8 for m in qmodules(model))
        assert all(m.precision is None for m in qmodules(model))

    def test_same_context_object_is_reentrant(self):
        model = small_model()
        ctx = PrecisionContext(model, 4)
        with ctx:
            with ctx:
                assert all(m.precision == 4 for m in qmodules(model))
            assert all(m.precision == 4 for m in qmodules(model))
        assert all(m.precision is None for m in qmodules(model))

    def test_restores_on_exception(self):
        model = small_model()
        with pytest.raises(RuntimeError):
            with precision(model, 4):
                raise RuntimeError("boom")
        assert all(m.precision is None for m in qmodules(model))

    def test_raises_on_unquantized_model(self):
        plain = nn.Linear(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="no quantized modules"):
            with precision(plain, 4):
                pass

    def test_none_bits_on_unquantized_model_is_noop(self):
        plain = nn.Linear(4, 2, rng=np.random.default_rng(0))
        with precision(plain, None):
            pass

    def test_carries_cache_and_views_into_scope(self):
        model = small_model()
        cache = QuantCache()
        with precision(model, 4, cache=cache, views=2):
            assert active_cache() is cache
            assert active_views() == 2
        assert active_cache() is None
        assert active_views() == 1

    def test_views_must_be_positive(self):
        with pytest.raises(ValueError, match="views"):
            precision(small_model(), 4, views=0)

    def test_matches_apply_precision_numerics(self):
        def run(model, scoped):
            x = Tensor(
                np.random.default_rng(3).normal(size=(4, 6)).astype(np.float32)
            )
            if scoped:
                with precision(model, 4):
                    out = model(x)
            else:
                apply_precision(model, 4)
                out = model(x)
            (out ** 2).sum().backward()
            grads = [np.asarray(p.grad).tobytes()
                     for p in model.parameters()]
            return out.data.tobytes(), grads

        scoped_out, scoped_grads = run(small_model(seed=7), scoped=True)
        open_out, open_grads = run(small_model(seed=7), scoped=False)
        assert scoped_out == open_out
        assert scoped_grads == open_grads


class TestApplyPrecision:
    def test_sets_and_counts(self):
        model = small_model()
        assert apply_precision(model, 4) == 2
        assert all(m.precision == 4 for m in qmodules(model))
        assert apply_precision(model, None) == 2
        assert all(m.precision is None for m in qmodules(model))

    def test_strict_raises_on_unquantized_model(self):
        plain = nn.Linear(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="no quantized modules"):
            apply_precision(plain, 4)
        assert apply_precision(plain, 4, strict=False) == 0

