"""Conv kernels: pad bytes, the im2col/col2im adjoint, the weight gradient.

The pad-and-transpose helper must reproduce
``np.pad(x, ...).transpose(1, 2, 3, 0)`` byte for byte.

``_col2im`` is the adjoint of ``_im2col``: for any padded input ``x``
and patches ``c``, ``<im2col(x), c> == <x, col2im(c)>``.  In float64
both sides sum the same products in different orders, so they agree to
rounding, far inside the 1e-12 relative tolerance used here.

The weight gradient is checked against a float64 einsum reference.  It
contracts ``m = N·P`` products per entry (batch × output positions).
Whatever order the GEMM sums them in, a float32 dot product of length
``m`` obeys the a priori bound ``|fl(a·b) - a·b| <= gamma_m · |a|·|b|``
with ``gamma_m = m·u / (1 - m·u)`` and unit roundoff ``u = eps32 / 2``.
The tolerance is that bound, written down before looking at any result.
"""

import itertools

import numpy as np
import pytest

from repro.nn._ops.conv import (
    _col2im,
    _im2col,
    _pad_batch_last,
    _weight_grad,
    conv2d_output_shape,
)

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
    # The batch-last operand layout: the contracted axis is P·N.
    grad = rng.normal(size=(groups, c_out_g, p * n)).astype(np.float32)
    cols = rng.normal(size=(groups, k, p * n)).astype(np.float32)

    got = _weight_grad(grad, cols)
    g64, c64 = grad.astype(np.float64), cols.astype(np.float64)
    ref = np.einsum("gom,gkm->gok", g64, c64)
    bound = gamma(n * p) * np.einsum("gom,gkm->gok", abs(g64), abs(c64))

    assert got.dtype == np.float32
    assert got.shape == (groups, c_out_g, k)
    assert np.all(np.abs(got - ref) <= bound)


def test_zero_pad_matches_np_pad_bytes():
    x = np.random.default_rng(0).normal(size=(2, 3, 4, 5)).astype(np.float32)
    x[0, 0, 0, :2] = (-0.0, np.nan)
    want = np.pad(x, ((0, 0), (0, 0), (1, 1), (2, 2)), mode="constant")
    got = _pad_batch_last(x, 1, 2)
    assert got.shape == (3, 6, 9, 2)
    assert got.tobytes() == want.transpose(1, 2, 3, 0).tobytes()


ADJOINT_GRID = list(itertools.product(
    ((1, 1), (2, 2), (1, 2)),   # stride
    (0, 1),                     # padding
    ((1, 1), (3, 3), (1, 3)),   # kernel
))


@pytest.mark.parametrize("stride, padding, kernel", ADJOINT_GRID)
def test_col2im_is_the_adjoint_of_im2col(stride, padding, kernel):
    rng = np.random.default_rng(0)
    n, c, h, w = 3, 2, 7, 6
    kh, kw = kernel
    xp = _pad_batch_last(rng.normal(size=(n, c, h, w)), padding, padding)
    oh, ow = conv2d_output_shape((h, w), kernel, stride, (padding, padding))
    c_patches = rng.normal(size=(c, kh, kw, oh, ow, n))

    cols = _im2col(xp, kh, kw, *stride)
    back = _col2im(c_patches, xp.shape, *stride)

    assert cols.shape == c_patches.shape and back.shape == xp.shape
    lhs = np.vdot(cols, c_patches)
    rhs = np.vdot(xp, back)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
