"""Batched augmentation: per-image draws, one ``apply`` per batch.

Three contracts, each against something independent of the batch path:

- ``apply`` on a batch equals the stacked per-image calls byte for byte;
- every op makes exactly the per-image reference's generator calls
  (``tests/helpers.py`` keeps the ops as they ran before the split);
- values stay within a float32 bound of that reference, derived below.
"""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    ColorJitter,
    Compose,
    DataLoader,
    GaussianBlur,
    RandomGrayscale,
    RandomHorizontalFlip,
    RandomResizedCrop,
    TwoViewTransform,
    simclr_augmentations,
)
from repro.nn.rng import derive_rng

from ..helpers import (
    blur_reference,
    crop_reference,
    flip_reference,
    grayscale_reference,
    jitter_reference,
    simclr_reference,
    two_view_reference,
)

SHAPE = (3, 12, 12)  # the training workloads' image shape
N = 32
STRENGTHS = (0.0, 0.5, 1.0, 2.0)
FALLBACK_CROP = dict(scale=(0.95, 1.0), ratio=(0.5, 2.0))
LOADER_SEED = 11

# (op, its per-image reference); the blur's sigma range spans radii 1-3.
OPS = {
    "crop": (RandomResizedCrop(), crop_reference()),
    "crop-fallback": (RandomResizedCrop(**FALLBACK_CROP),
                      crop_reference(**FALLBACK_CROP)),
    "flip": (RandomHorizontalFlip(), flip_reference()),
    "jitter": (ColorJitter(0.8, 0.8, 0.8), jitter_reference(0.8, 0.8, 0.8)),
    "jitter-contrast": (ColorJitter(0.0, 0.5, 0.0),
                        jitter_reference(0.0, 0.5, 0.0)),
    "grayscale": (RandomGrayscale(p=0.5), grayscale_reference(p=0.5)),
    "blur": (GaussianBlur(sigma=(0.1, 2.0), p=0.5),
             blur_reference(sigma=(0.1, 2.0), p=0.5)),
}
# Ops that run the reference's float arithmetic on the same values.
SAME_ARITHMETIC = {"crop", "crop-fallback", "flip", "grayscale"}


def float32_bound(strength: float, shape=SHAPE) -> float:
    """Largest |batched - reference| a pixel may show, derived a priori.

    Draws are equal, so crop, flip, brightness, grayscale and blur run the
    same float operations on the same operands; the jitter's means are
    the only reductions whose order changed.  With u = 2**-24, images in
    [0, 1], M = C*H*W pixels per image and the jitter factors within
    1 +- 0.4*strength:

    - brightness leaves every value <= B = 1 + 0.4*strength, and no
      intermediate exceeds A = B**2 * (1 + 0.8*strength);
    - two float32 sums of M terms <= B, in any order, differ by at most
      2*(M - 1)*u*M*B (recursive-summation worst case), so the contrast
      means differ by at most 2*M*u*B, division roundings included;
    - contrast scales that by |1 - factor| <= 0.4*strength and adds at
      most three differently rounded float32 ops, 2*u*A each;
    - the saturation's channel mean adds 2*C*u*A, and its three ops
      scale the difference by at most 3 + 0.8*strength plus 6*u*A;
    - after the clip, grayscale adds 2*C*u and the blur's accumulations
      add 2*u per tap and pass (radius <= 3 for sigma < 2, two passes).
    """
    u = 2.0 ** -24
    c = shape[0]
    m = int(np.prod(shape))
    b = 1.0 + 0.4 * strength
    a = b * b * (1.0 + 0.8 * strength)
    contrast = 0.4 * strength * 2 * m * u * b + 6 * u * a
    jitter = (3 + 0.8 * strength) * (contrast + 2 * c * u * a) + 6 * u * a
    return jitter + 2 * c * u + 2 * 2 * 7 * u


def images(n=N, seed=0):
    return np.random.default_rng(seed).random((n,) + SHAPE).astype(np.float32)


def stream(seed, i):
    return derive_rng(seed, 7, i)


def assert_bytes_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_mixed(name, params):
    """The batch holds images the op changes and images it leaves alone."""
    h, w = SHAPE[1:]
    if name == "crop-fallback":
        whole = [tuple(int(v) for v in p) == (0, 0, h, w) for p in params]
        assert 0 < sum(whole) < len(params)
    elif name in ("flip", "grayscale"):
        assert 0 < sum(params) < len(params)
    elif name == "blur":
        radii = {max(1, int(2 * s)) for s in params if s is not None}
        assert None in params and len(radii) > 1


# -- batch == stacked per-image calls -------------------------------------------

@pytest.mark.parametrize("name", sorted(OPS))
def test_op_batch_equals_per_image(name):
    op, _ = OPS[name]
    batch = images()
    params = [op.draw(stream(1, i), SHAPE) for i in range(N)]
    assert_mixed(name, params)
    per_image = np.stack([op(image, stream(1, i))
                          for i, image in enumerate(batch)])
    assert_bytes_equal(op.apply(batch, params), per_image)


@pytest.mark.parametrize("strength", STRENGTHS)
def test_simclr_batch_equals_per_image(strength):
    two = TwoViewTransform(simclr_augmentations(strength))
    assert two.batched
    batch = images()
    params = [two.draw(stream(2, i), SHAPE) for i in range(N)]
    views = two.apply(batch, params)
    for v, view in enumerate(views):
        per_image = np.stack([two(image, stream(2, i))[v]
                              for i, image in enumerate(batch)])
        assert_bytes_equal(view, per_image)


def test_identity_crop_box_keeps_pixels():
    batch = images(4)
    out = RandomResizedCrop().apply(batch, [(0, 0) + SHAPE[1:]] * 4)
    np.testing.assert_array_equal(out, batch)


@pytest.mark.parametrize("seeded", [False, True])
@pytest.mark.parametrize("strength", STRENGTHS)
def test_loader_batches_equal_per_sample_path(strength, seeded):
    """The same ops behind a plain callable take the per-sample path."""
    two = TwoViewTransform(simclr_augmentations(strength))
    per_sample = lambda image, rng: two(image, rng)  # noqa: E731
    batched, plain = (_loader(t, seeded) for t in (two, per_sample))
    for _ in range(2):
        for got, want in zip(batched, plain):
            for a, b in zip(got, want):
                assert_bytes_equal(a, b)


def test_compose_with_plain_callable_runs_per_image():
    pipeline = Compose([RandomHorizontalFlip(p=1.0), lambda img, r: img + 1.0])
    assert not pipeline.batched
    assert not TwoViewTransform(pipeline).batched
    image = images(1)[0]
    loader = DataLoader(ArrayDataset(image[None], np.zeros(1)), 1,
                        transform=pipeline, seed=0)
    (batch, _), = list(loader)
    np.testing.assert_array_equal(batch[0], image[:, :, ::-1] + 1.0)


# -- draws and values against the per-image reference ----------------------------

@pytest.mark.parametrize("name", sorted(OPS))
def test_op_draws_and_values_match_reference(name):
    op, reference = OPS[name]
    bound = float32_bound(2.0)
    for i, image in enumerate(images()):
        new_rng, ref_rng = stream(3, i), stream(3, i)
        out = op(image, new_rng)
        want = reference(image, ref_rng)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        assert out.dtype == want.dtype and out.shape == want.shape
        if name in SAME_ARITHMETIC:
            np.testing.assert_array_equal(out, want)
        else:
            np.testing.assert_allclose(out, want, rtol=0, atol=bound)


@pytest.mark.parametrize("strength", STRENGTHS)
def test_legacy_epochs_match_reference(strength):
    """One shared generator: shuffle, then each sample's views in order."""
    new = _loader(TwoViewTransform(simclr_augmentations(strength)), False)
    reference = two_view_reference(simclr_reference(strength))
    rng = np.random.default_rng(LOADER_SEED)
    for _ in range(3):
        order = np.arange(len(new.dataset))
        rng.shuffle(order)
        _assert_epoch(new, order, reference, lambda index: rng, strength)
        assert new.rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("strength", STRENGTHS)
def test_seeded_samples_match_reference(strength):
    """Shuffle from (seed, 1, epoch); sample i's views from (seed, 2, epoch, i)."""
    two = TwoViewTransform(simclr_augmentations(strength))
    reference = two_view_reference(simclr_reference(strength))
    new = _loader(two, True)
    for epoch in range(2):
        order = np.arange(len(new.dataset))
        derive_rng(LOADER_SEED, 1, epoch).shuffle(order)
        _assert_epoch(new, order, reference,
                      lambda index: derive_rng(LOADER_SEED, 2, epoch, index),
                      strength)
        for index, (image, _) in enumerate(new.dataset):
            new_rng = derive_rng(LOADER_SEED, 2, epoch, index)
            ref_rng = derive_rng(LOADER_SEED, 2, epoch, index)
            two.draw(new_rng, image.shape)
            reference(image, ref_rng)
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state



def _loader(transform, seeded, n=96, batch=N):
    data = images(n, seed=5)
    labels = np.arange(n) % 4
    stream_kw = (dict(seed=LOADER_SEED) if seeded
                 else dict(rng=np.random.default_rng(LOADER_SEED)))
    return DataLoader(ArrayDataset(data, labels), batch, shuffle=True,
                      drop_last=True, transform=transform, **stream_kw)


def _assert_epoch(loader, order, reference, sample_rng, strength):
    """The loader's next epoch against a per-sample reference loop."""
    dataset = loader.dataset
    batches = list(loader)
    assert len(batches) == len(order) // N
    bound = float32_bound(strength)
    for got, start in zip(batches, range(0, len(order), N)):
        chunk = order[start : start + N]
        views = [reference(dataset.images[i], sample_rng(int(i)))
                 for i in chunk]
        np.testing.assert_array_equal(got[-1], dataset.labels[chunk])
        for v, view in enumerate(got[:-1]):
            want = np.stack([pair[v] for pair in views])
            assert view.dtype == want.dtype == np.float32
            assert view.shape == want.shape
            np.testing.assert_allclose(view, want, rtol=0, atol=bound)
