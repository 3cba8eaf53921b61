"""The normalization op against the composites it replaced.

``Normalize`` (``repro.nn._ops.norm``) is one tape op for GroupNorm,
LayerNorm, BatchNorm1d and BatchNorm2d.  The composites of primitive ops
the layers ran before are kept in ``tests/helpers.py`` as the reference:

- in float64, the output and all three gradients match within 1e-10 of
  the largest reference value;
- in float32, they match within the rounding bound below;
- BatchNorm's running buffers match after several forwards, with and
  without grad, and a replayed plan updates the layer's own buffers;
- an inference plan replays byte-equal to eager and keeps no norm state.

Float32 bound, fixed before running: each side's value is a chain of at
most four rounding stages (a reduction, then centring or scaling, then
the affine), and a reduction of ``m`` terms errs by at most
``gamma(m) = m·u / (1 - m·u)`` times the sum of the terms' magnitudes
(u = 2**-24, the float32 unit roundoff).  Every reduction here is at
most ``x.size`` long, so each side lies within ``4·gamma(x.size)·scale``
of the exact value, and the two sides within twice that.  ``scale`` is
the magnitude of the terms, from the float64 values:

- output: ``max|xhat|·max|w| + max|b|``;
- dx: ``max(1/std)·max|g|·max|w|·(2 + max|xhat|**2)``, the three terms of
  ``(g·w - mean(g·w) - xhat·mean(g·w·xhat)) / std``;
- dweight and dbias: ``x.size·max|g|·max|xhat|`` and ``x.size·max|g|``.
"""

import copy

import numpy as np
import pytest

from repro import nn
from repro.engine import ExecutionEngine, compile_plan
from repro.engine.tracer import Tracer, tracing
from repro.models import resnet18
from repro.nn._ops.norm import Normalize
from repro.nn.autograd import enable_grad, no_grad
from repro.nn.tensor import Tensor

from ..helpers import (
    batch_norm_reference,
    group_norm_reference,
    layer_norm_reference,
)

U32 = np.finfo(np.float32).eps / 2
ROUNDING_STAGES = 4


def gamma(m):
    return m * U32 / (1 - m * U32)


def _eval_batch_norm():
    bn = nn.BatchNorm2d(3)
    rng = np.random.default_rng(5)
    bn.set_buffer("running_mean", rng.normal(size=3).astype(np.float32))
    bn.set_buffer("running_var",
                  rng.uniform(0.5, 2.0, size=3).astype(np.float32))
    return bn.eval()


# name -> (layer factory, input shape, reference(layer, x))
CASES = {
    "group": (
        lambda: nn.GroupNorm(2, 4), (3, 4, 3, 5),
        lambda m, x: group_norm_reference(x, 2, m.weight, m.bias, m.eps),
    ),
    "group_plain": (
        lambda: nn.GroupNorm(2, 4, affine=False), (3, 4, 3, 5),
        lambda m, x: group_norm_reference(x, 2, eps=m.eps),
    ),
    "layer_2d": (
        lambda: nn.LayerNorm(6), (5, 6),
        lambda m, x: layer_norm_reference(x, m.weight, m.bias, m.eps),
    ),
    "layer_3d": (
        lambda: nn.LayerNorm(6), (2, 3, 6),
        lambda m, x: layer_norm_reference(x, m.weight, m.bias, m.eps),
    ),
    "batch_1d": (lambda: nn.BatchNorm1d(4), (8, 4), batch_norm_reference),
    "batch_2d": (lambda: nn.BatchNorm2d(3), (4, 3, 3, 5),
                 batch_norm_reference),
    "batch_untracked": (
        lambda: nn.BatchNorm2d(3, track_running_stats=False), (4, 3, 2, 2),
        batch_norm_reference,
    ),
    "batch_eval": (_eval_batch_norm, (4, 3, 3, 5), batch_norm_reference),
}


def run_case(name, dtype):
    """Output and (dx, dweight, dbias) from the op and from the reference.

    The layer's weight and bias are replaced by random tensors of
    ``dtype`` (plain Tensors, so float64 stays float64); both sides use
    the same values, input and upstream gradient.
    """
    make, shape, reference = CASES[name]
    layer = make()
    rng = np.random.default_rng(sorted(CASES).index(name))
    if layer.affine:
        c = layer.weight.shape[0]
        layer.weight = Tensor(rng.normal(1.0, 0.5, size=c),
                              requires_grad=True, dtype=dtype)
        layer.bias = Tensor(rng.normal(size=c), requires_grad=True,
                            dtype=dtype)
    x_data = rng.normal(0.5, 2.0, size=shape).astype(dtype)
    upstream = rng.normal(size=shape).astype(dtype)

    results = []
    for forward in (lambda m, x: m(x), reference):
        m = copy.deepcopy(layer)
        x = Tensor(x_data, requires_grad=True, dtype=dtype)
        out = forward(m, x)
        out.backward(upstream)
        grads = [x.grad]
        if m.affine:
            grads += [m.weight.grad, m.bias.grad]
        results.append((out.data, grads))
    return layer, x_data, upstream, results


def max_rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_float64_matches_composite(name):
    _, _, _, ((out, grads), (want, want_grads)) = run_case(name, np.float64)
    assert out.dtype == np.float64
    assert max_rel_diff(out, want) <= 1e-10
    for g, w in zip(grads, want_grads):
        assert g.dtype == np.float64
        assert max_rel_diff(g, w) <= 1e-10


def _float64_terms(layer, x, upstream):
    """max|xhat|, max(1/std) and the affine magnitudes, in float64."""
    x = x.astype(np.float64)
    if isinstance(layer, nn.GroupNorm):
        rows = x.reshape(x.shape[0] * layer.num_groups, -1)
        axis = 1
    elif isinstance(layer, nn.LayerNorm):
        rows, axis = x.reshape(-1, x.shape[-1]), 1
    else:
        rows = np.moveaxis(x, 1, -1).reshape(-1, x.shape[1])
        axis = 0
    if isinstance(layer, nn.BatchNorm2d) and not layer.training:
        mean = layer.running_mean.astype(np.float64)
        var = layer.running_var.astype(np.float64)
    else:
        mean = rows.mean(axis=axis, keepdims=True)
        var = rows.var(axis=axis, keepdims=True)
    inv_std = (var + layer.eps) ** -0.5
    xhat = np.max(np.abs((rows - mean) * inv_std))
    if layer.affine:
        w = np.max(np.abs(layer.weight.data))
        b = np.max(np.abs(layer.bias.data))
    else:
        w, b = 1.0, 0.0
    return xhat, np.max(inv_std), w, b, np.max(np.abs(upstream))


@pytest.mark.parametrize("name", sorted(CASES))
def test_float32_within_rounding_bound(name):
    layer, x, upstream, results = run_case(name, np.float32)
    (out, grads), (want, want_grads) = results
    xhat, inv_std, w, b, g = _float64_terms(layer, x, upstream)
    tol = 2 * ROUNDING_STAGES * gamma(x.size)
    scales = [xhat * w + b, inv_std * g * w * (2 + xhat ** 2),
              x.size * g * xhat, x.size * g]
    assert out.dtype == np.float32
    assert np.max(np.abs(out - want)) <= tol * scales[0]
    for got, ref, scale in zip(grads, want_grads, scales[1:]):
        assert got.dtype == np.float32
        assert np.max(np.abs(got - ref)) <= tol * scale


@pytest.mark.parametrize("grad_mode", [enable_grad, no_grad])
@pytest.mark.parametrize("make", [lambda: nn.BatchNorm1d(4, momentum=0.3),
                                  lambda: nn.BatchNorm2d(3, momentum=0.3)],
                         ids=["1d", "2d"])
def test_running_buffers_match_composite(make, grad_mode):
    layer = make()
    reference = copy.deepcopy(layer)
    shape = (8, 4) if isinstance(layer, nn.BatchNorm1d) else (4, 3, 3, 5)
    rng = np.random.default_rng(7)
    scale = 0.0
    for step in range(4):
        x = rng.normal(step, 1.0 + step, size=shape).astype(np.float32)
        with grad_mode():
            layer(Tensor(x, requires_grad=True))
            batch_norm_reference(reference, Tensor(x, requires_grad=True))
        assert layer.num_batches_tracked == reference.num_batches_tracked
        assert int(layer.num_batches_tracked) == step + 1
        # The running values blend ``step + 1`` batch statistics, each
        # within the float32 bound of its own; the terms of a mean are at
        # most max|x|, those of a variance at most (2·max|x|)**2.
        scale = max(scale, float(np.max(np.abs(x))))
        tol = 2 * ROUNDING_STAGES * gamma(x.size) * (step + 1)
        np.testing.assert_allclose(layer.running_mean,
                                   reference.running_mean,
                                   rtol=0, atol=tol * scale)
        np.testing.assert_allclose(layer.running_var,
                                   reference.running_var,
                                   rtol=0, atol=tol * (2 * scale) ** 2)


def test_replayed_plan_updates_the_layers_own_buffers():
    """The op reaches the buffers through the layer, not a traced copy."""
    bn = nn.BatchNorm2d(3)
    twin = copy.deepcopy(bn)
    rng = np.random.default_rng(8)
    batches = [rng.normal(size=(4, 3, 2, 2)).astype(np.float32)
               for _ in range(3)]

    x = Tensor(batches[0])
    tracer = Tracer(inputs={"x": x})
    with tracing(tracer):
        root = bn(x)
    plan = compile_plan(tracer.finalize(root), training=False)
    for data in batches[1:]:
        result = plan.replay({"x": data})
    for data in batches:
        want = twin(Tensor(data))

    assert result.root.tobytes() == want.data.tobytes()
    assert int(bn.num_batches_tracked) == 3
    assert bn.running_mean.tobytes() == twin.running_mean.tobytes()
    assert bn.running_var.tobytes() == twin.running_var.tobytes()


def test_inference_plan_keeps_no_norm_state():
    model = resnet18(stem="cifar", width_multiplier=0.0625, norm="group",
                     rng=np.random.default_rng(0))
    model.eval()
    engine = ExecutionEngine(training=False)
    x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 8, 8))
               .astype(np.float32))

    def eager():
        with no_grad():
            return model(x), {}

    engine.execute("forward", {"x": x}, None, eager)  # trace
    result = engine.execute("forward", {"x": x}, None, eager)  # replay

    assert result.replayed
    with no_grad():
        want = model(x).data
    assert result.root.tobytes() == want.tobytes()
    norms = [r for r in engine.plan_for("forward").records
             if r.op is Normalize]
    assert len(norms) == 20
    assert all(getattr(r.ctx, "saved", None) is None for r in norms)
