"""Conv kernels: zero-pad bytes, and the float32 weight gradient.

The padding helper must reproduce ``np.pad`` byte for byte.

The weight gradient is checked against a float64 einsum reference.  It
contracts ``m = N·P`` products per entry (batch × output positions).
Whatever order the GEMM sums them in, a float32 dot product of length
``m`` obeys the a priori bound ``|fl(a·b) - a·b| <= gamma_m · |a|·|b|``
with ``gamma_m = m·u / (1 - m·u)`` and unit roundoff ``u = eps32 / 2``.
The tolerance is that bound, written down before looking at any result.
"""

import numpy as np
import pytest

from repro.nn._ops.conv import _weight_grad, _zero_pad

U32 = np.finfo(np.float32).eps / 2

# (N, groups, C_out/g, k, P): the training workloads' ResNet-18 shapes,
# a 1×1-spatial layer, a grouped and a depthwise conv.
SHAPES = [
    (64, 1, 4, 27, 144),
    (64, 1, 8, 72, 36),
    (64, 1, 32, 288, 4),
    (16, 1, 32, 288, 1),
    (8, 2, 8, 36, 49),
    (8, 16, 1, 9, 49),
]


def gamma(m):
    return m * U32 / (1 - m * U32)


@pytest.mark.parametrize("shape", SHAPES)
def test_weight_grad_within_float32_dot_product_bound(shape):
    n, groups, c_out_g, k, p = shape
    rng = np.random.default_rng(sum(shape))
    grad = rng.normal(size=(n, groups, c_out_g, p)).astype(np.float32)
    cols = rng.normal(size=(n, groups, k, p)).astype(np.float32)

    got = _weight_grad(grad, cols)
    g64, c64 = grad.astype(np.float64), cols.astype(np.float64)
    ref = np.einsum("ngop,ngkp->gok", g64, c64)
    bound = gamma(n * p) * np.einsum("ngop,ngkp->gok", abs(g64), abs(c64))

    assert got.dtype == np.float32
    assert got.shape == (groups, c_out_g, k)
    assert np.all(np.abs(got - ref) <= bound)


def test_weight_grad_writes_into_out():
    rng = np.random.default_rng(0)
    grad = rng.normal(size=(4, 2, 3, 5)).astype(np.float32)
    cols = rng.normal(size=(4, 2, 6, 5)).astype(np.float32)
    out = np.empty((2, 3, 6), dtype=np.float32)
    assert _weight_grad(grad, cols, out=out) is out
    assert out.tobytes() == _weight_grad(grad, cols).tobytes()


def test_zero_pad_matches_np_pad_bytes():
    x = np.random.default_rng(0).normal(size=(2, 3, 4, 5)).astype(np.float32)
    x[0, 0, 0, :2] = (-0.0, np.nan)
    want = np.pad(x, ((0, 0), (0, 0), (1, 1), (2, 2)), mode="constant")
    assert _zero_pad(x, 1, 2).tobytes() == want.tobytes()
    out = np.zeros_like(want)
    assert _zero_pad(x, 1, 2, out=out) is out
    assert out.tobytes() == want.tobytes()
