"""Shared test utilities: numerical gradient checking and references."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.retrieval import rowwise_topk
from repro.retrieval.ivf import _assign_cells


def numerical_gradients(
    func: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    eps: float = 1e-6,
):
    """Central-difference gradients of a scalar-valued ``func``.

    ``func`` must recompute from the current ``tensor.data`` each call so
    perturbations are observed.
    """
    grads = []
    for tensor in tensors:
        grad = np.zeros_like(tensor.data, dtype=np.float64)
        flat = tensor.data.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = float(func().data)
            flat[i] = original - eps
            minus = float(func().data)
            flat[i] = original
            grad.reshape(-1)[i] = (plus - minus) / (2 * eps)
        grads.append(grad)
    return grads


def check_gradients(
    func: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    atol: float = 1e-5,
    rtol: float = 1e-4,
    eps: float = 1e-6,
) -> None:
    """Assert autograd gradients match central differences.

    Tensors should be float64 for the comparison to be meaningful.
    """
    for tensor in tensors:
        tensor.zero_grad()
    out = func()
    assert out.data.size == 1, "gradient check requires a scalar output"
    out.backward()
    numeric = numerical_gradients(func, tensors, eps=eps)
    for tensor, expected in zip(tensors, numeric):
        assert tensor.grad is not None, "missing gradient after backward()"
        np.testing.assert_allclose(
            tensor.grad.astype(np.float64), expected, atol=atol, rtol=rtol
        )


def gradcheck(
    func: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    atol: float = 1e-5,
    rtol: float = 1e-4,
    eps: float = 1e-6,
) -> None:
    """Numerical gradient check for a ``func`` of any output shape.

    Non-scalar outputs are scalarized as ``sum(out * out)``, which feeds a
    non-uniform upstream gradient into the op under test (a plain ``sum``
    would mask bugs that only show with varying ``grad_output``).  This is
    the promoted form of the per-module ``test_gradcheck`` pattern.
    """

    def scalarized() -> Tensor:
        out = func()
        return F.sum(out * out)

    check_gradients(scalarized, tensors, atol=atol, rtol=rtol, eps=eps)


def tensor64(array, requires_grad: bool = True) -> Tensor:
    """Float64 tensor for numerically tight gradient checks."""
    return Tensor(np.asarray(array, dtype=np.float64), requires_grad=requires_grad,
                  dtype=np.float64)


def conv2d_reference(x, weight, bias, stride, padding, groups=1):
    """Naive loop conv2d used as ground truth for the im2col implementation."""
    n, c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, oh, ow), dtype=x.dtype)
    group_in = c_in // groups
    group_out = c_out // groups
    for b in range(n):
        for oc in range(c_out):
            g = oc // group_out
            for i in range(oh):
                for j in range(ow):
                    patch = xp[
                        b,
                        g * group_in : (g + 1) * group_in,
                        i * sh : i * sh + kh,
                        j * sw : j * sw + kw,
                    ]
                    out[b, oc, i, j] = np.sum(patch * weight[oc])
            if bias is not None:
                out[b, oc] += bias[oc]
    return out


# -- residual join reference --------------------------------------------------
# The two tape ops BasicBlock ran for its residual join and activation before
# they became one op (repro.nn._ops.elementwise.AddRelu), kept as its
# reference: autograd derives the gradients through Relu, then Add.


def add_relu_reference(a, b):
    """``relu(a + b)`` as ``Add`` then ``Relu``."""
    return F.relu(F.add(a, b))


# -- normalization references -------------------------------------------------
# The composites the normalization layers ran before each became one op
# (repro.nn._ops.norm.Normalize), kept verbatim as its reference: every
# step is a primitive tape op, so autograd derives their gradients.


def group_norm_reference(x, num_groups, weight=None, bias=None, eps=1e-5):
    """GroupNorm over NCHW ``x`` as a composite of primitive ops."""
    n, c, h, w = x.shape
    grouped = F.reshape(x, (n, num_groups, -1))
    mean = F.mean(grouped, axis=2, keepdims=True)
    centered = grouped - mean
    var = F.mean(centered * centered, axis=2, keepdims=True)
    normalized = centered * ((var + eps) ** -0.5)
    out = F.reshape(normalized, (n, c, h, w))
    if weight is not None:
        shape = (1, c, 1, 1)
        out = out * F.reshape(weight, shape) + F.reshape(bias, shape)
    return out


def layer_norm_reference(x, weight=None, bias=None, eps=1e-5):
    """LayerNorm over the last axis of ``x`` as a composite."""
    mean = F.mean(x, axis=-1, keepdims=True)
    centered = x - mean
    var = F.mean(centered * centered, axis=-1, keepdims=True)
    out = centered * ((var + eps) ** -0.5)
    if weight is not None:
        out = out * weight + bias
    return out


def batch_norm_reference(bn, x):
    """``bn``'s forward as a composite, running-buffer update included.

    Reads and updates ``bn``'s own parameters and buffers, so a second
    layer with the same initial state can run the real forward beside it.
    """
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    shape = [1] * x.ndim
    shape[1] = bn.num_features
    shape = tuple(shape)
    if bn.training or not bn.track_running_stats:
        mean = F.mean(x, axis=axes, keepdims=True)
        centered = x - mean
        var = F.mean(centered * centered, axis=axes, keepdims=True)
        if bn.track_running_stats:
            batch_mean = mean.data.reshape(-1)
            n = x.data.size / bn.num_features
            unbiased = var.data.reshape(-1) * (n / max(n - 1.0, 1.0))
            m = bn.momentum
            bn.set_buffer(
                "running_mean", (1 - m) * bn.running_mean + m * batch_mean
            )
            bn.set_buffer(
                "running_var", (1 - m) * bn.running_var + m * unbiased
            )
            bn.set_buffer("num_batches_tracked", bn.num_batches_tracked + 1)
        out = centered * ((var + bn.eps) ** -0.5)
    else:
        mean = Tensor(bn.running_mean.reshape(shape))
        var = Tensor(bn.running_var.reshape(shape))
        out = (x - mean) * ((var + bn.eps) ** -0.5)
    if bn.affine:
        out = out * F.reshape(bn.weight, shape) + F.reshape(bn.bias, shape)
    return out


# -- augmentation references ----------------------------------------------------
# The per-image augmentation ops repro.data.augment ran before each op split
# into a per-image ``draw`` and a batched ``apply``, kept verbatim as their
# reference: the same generator calls in the same order, and the same
# arithmetic except for the order of the jitter ops' float32 reductions.


def resize_bilinear_reference(image, out_h, out_w):
    """Bilinear resize of a CHW image."""
    c, h, w = image.shape
    if (h, w) == (out_h, out_w):
        return image.copy()
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    top = image[:, y0][:, :, x0] * (1 - wx) + image[:, y0][:, :, x1] * wx
    bottom = image[:, y1][:, :, x0] * (1 - wx) + image[:, y1][:, :, x1] * wx
    return (top * (1 - wy) + bottom * wy).astype(image.dtype)


def crop_reference(scale=(0.4, 1.0), ratio=(0.75, 1.333)):
    def crop(image, rng):
        c, h, w = image.shape
        area = h * w
        for _ in range(10):
            target_area = area * rng.uniform(*scale)
            aspect = np.exp(rng.uniform(np.log(ratio[0]), np.log(ratio[1])))
            crop_w = int(round(np.sqrt(target_area * aspect)))
            crop_h = int(round(np.sqrt(target_area / aspect)))
            if 0 < crop_w <= w and 0 < crop_h <= h:
                top = rng.integers(0, h - crop_h + 1)
                left = rng.integers(0, w - crop_w + 1)
                patch = image[:, top : top + crop_h, left : left + crop_w]
                return resize_bilinear_reference(patch, h, w)
        return image.copy()

    return crop


def flip_reference(p=0.5):
    def flip(image, rng):
        if rng.random() < p:
            return image[:, :, ::-1].copy()
        return image

    return flip


def jitter_reference(brightness=0.4, contrast=0.4, saturation=0.4):
    def jitter(image, rng):
        out = image.astype(np.float32)
        if brightness:
            out = out * (1.0 + rng.uniform(-brightness, brightness))
        if contrast:
            factor = 1.0 + rng.uniform(-contrast, contrast)
            mean = out.mean()
            out = (out - mean) * factor + mean
        if saturation:
            factor = 1.0 + rng.uniform(-saturation, saturation)
            gray = out.mean(axis=0, keepdims=True)
            out = gray + (out - gray) * factor
        return np.clip(out, 0.0, 1.0)

    return jitter


def grayscale_reference(p=0.2):
    def grayscale(image, rng):
        if rng.random() < p:
            gray = image.mean(axis=0, keepdims=True)
            return np.repeat(gray, image.shape[0], axis=0)
        return image

    return grayscale


def blur_reference(sigma=(0.1, 1.0), p=0.5):
    def blur(image, rng):
        if rng.random() >= p:
            return image
        s = rng.uniform(*sigma)
        radius = max(1, int(2 * s))
        offsets = np.arange(-radius, radius + 1)
        kernel = np.exp(-(offsets**2) / (2 * s**2))
        kernel /= kernel.sum()
        padded = np.pad(image, ((0, 0), (radius, radius), (0, 0)), mode="edge")
        out = np.zeros_like(image)
        for i, k in enumerate(kernel):
            out += k * padded[:, i : i + image.shape[1], :]
        padded = np.pad(out, ((0, 0), (0, 0), (radius, radius)), mode="edge")
        final = np.zeros_like(image)
        for i, k in enumerate(kernel):
            final += k * padded[:, :, i : i + image.shape[2]]
        return final

    return blur


def noise_reference(std=0.02):
    def noise(image, rng):
        if std == 0:
            return image
        noisy = image + rng.normal(0, std, size=image.shape)
        return np.clip(noisy, 0.0, 1.0).astype(np.float32)

    return noise


def cutout_reference(size_fraction=0.25, p=0.5):
    def cutout(image, rng):
        if rng.random() >= p:
            return image
        c, h, w = image.shape
        ch = max(1, int(h * size_fraction))
        cw = max(1, int(w * size_fraction))
        top = rng.integers(0, h - ch + 1)
        left = rng.integers(0, w - cw + 1)
        out = image.copy()
        out[:, top : top + ch, left : left + cw] = 0.0
        return out

    return cutout


def compose_reference(ops):
    def pipeline(image, rng):
        for op in ops:
            image = op(image, rng)
        return image

    return pipeline


def two_view_reference(transform):
    return lambda image, rng: (transform(image, rng), transform(image, rng))


def simclr_reference(strength=1.0):
    """The SimCLR recipe of :func:`repro.data.simclr_augmentations`."""
    return compose_reference([
        crop_reference(scale=(max(0.2, 1.0 - 0.6 * strength), 1.0)),
        flip_reference(),
        jitter_reference(0.4 * strength, 0.4 * strength, 0.4 * strength),
        grayscale_reference(p=0.2 * strength),
        blur_reference(p=0.3 * strength),
    ])


# -- retrieval references -------------------------------------------------------
# rerank_exact as it ran before each block of shortlists shared one reused
# scratch, kept verbatim as its reference: a fresh (block, R, dim) gather and a
# fresh difference array per query_block queries.


def rerank_reference(store, queries, shortlist_ids, k, *, metric="l2",
                     query_block=32):
    queries = np.asarray(queries, dtype=np.float32)
    shortlist_ids = np.asarray(shortlist_ids, dtype=np.int64)
    out_ids = np.empty((queries.shape[0], min(k, shortlist_ids.shape[1])),
                       dtype=np.int64)
    out_dists = np.empty(out_ids.shape, dtype=np.float32)
    for start in range(0, queries.shape[0], query_block):
        block_ids = shortlist_ids[start:start + query_block]
        block_q = queries[start:start + query_block]
        vectors = store.gather(block_ids)  # (b, R, dim) float32
        if metric == "l2":
            delta = vectors - block_q[:, None, :]
            dists = np.einsum("qrd,qrd->qr", delta, delta)
        else:
            dists = -np.einsum("qrd,qd->qr", vectors, block_q)
        ids, top = rowwise_topk(block_ids, dists, k)
        out_ids[start:start + query_block] = ids
        out_dists[start:start + query_block] = top
    return out_ids, out_dists


# IVFIndex.add as it ran before it stopped copying each chunk, kept verbatim as
# its reference (``self`` is ``index``): a float64 copy of every chunk for cell
# assignment and codes, then a float32 copy of that for the store.


def add_reference(index, embeddings):
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[1] != index.dim:
        raise ValueError(
            f"embeddings must have shape (N, {index.dim}), got "
            f"{embeddings.shape}"
        )
    if embeddings.shape[0] == 0:
        raise ValueError("add() needs at least one embedding")
    cells = _assign_cells(index._centroids, embeddings)
    if index._binary:
        codes = index.encoder.encode(embeddings)
        bias = None
    else:
        centroids = index._centroids[cells].astype(np.float64)
        codes = index.encoder.encode(embeddings - centroids)
        bias = index._residual_bias(codes, centroids)
    order = np.argsort(cells, kind="stable")
    boundaries = np.flatnonzero(np.diff(cells[order])) + 1
    groups = np.split(order, boundaries)
    with index._lock:
        start = index._size
        ids = np.arange(start, start + embeddings.shape[0],
                        dtype=np.int64)
        for group in groups:
            cell = int(cells[group[0]])
            index._cells[cell].append(
                codes[group], ids[group],
                bias[group] if bias is not None else None)
        index._size = start + embeddings.shape[0]
        if index._store is not None:
            # Under the index lock so code ids and float rows can
            # never interleave across concurrent add() calls.
            index._store.append(embeddings.astype(np.float32))
    return ids
