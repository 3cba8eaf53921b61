"""Hypothesis property tests for data pipeline invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ColorJitter,
    RandomHorizontalFlip,
    RandomResizedCrop,
    simclr_augmentations,
    stratified_label_fraction,
)
from repro.data.augment import resize_bilinear

images = st.tuples(
    st.integers(1, 4),   # channels
    st.integers(6, 20),  # height
    st.integers(6, 20),  # width
    st.integers(0, 10_000),
)


def make_image(spec):
    c, h, w, seed = spec
    return np.random.default_rng(seed).random((c, h, w)).astype(np.float32)


@settings(max_examples=40, deadline=None)
@given(images, st.integers(0, 1000))
def test_augmentations_preserve_shape_and_range(spec, seed):
    image = make_image(spec)
    rng = np.random.default_rng(seed)
    pipeline = simclr_augmentations(1.0)
    out = pipeline(image[:3] if image.shape[0] >= 3 else image, rng)
    assert out.shape[1:] == image.shape[1:]
    assert out.min() >= -1e-5
    assert out.max() <= 1.0 + 1e-5


@settings(max_examples=40, deadline=None)
@given(images, st.integers(4, 30), st.integers(4, 30))
def test_resize_shape_and_hull(spec, out_h, out_w):
    image = make_image(spec)
    out = resize_bilinear(image, out_h, out_w)
    assert out.shape == (image.shape[0], out_h, out_w)
    assert out.min() >= image.min() - 1e-5
    assert out.max() <= image.max() + 1e-5


@settings(max_examples=40, deadline=None)
@given(images, st.integers(0, 100))
def test_flip_is_involution(spec, seed):
    image = make_image(spec)
    flip = RandomHorizontalFlip(p=1.0)
    rng = np.random.default_rng(seed)
    np.testing.assert_array_equal(flip(flip(image, rng), rng), image)


@settings(max_examples=40, deadline=None)
@given(images, st.integers(0, 100), st.floats(0.0, 0.9))
def test_jitter_stays_in_unit_range(spec, seed, strength):
    image = make_image(spec)
    out = ColorJitter(strength, strength, strength)(
        image, np.random.default_rng(seed)
    )
    assert out.min() >= 0.0 and out.max() <= 1.0


@settings(max_examples=40, deadline=None)
@given(images, st.integers(0, 100))
def test_crop_returns_same_geometry(spec, seed):
    image = make_image(spec)
    out = RandomResizedCrop()(image, np.random.default_rng(seed))
    assert out.shape == image.shape


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8),      # classes
    st.integers(5, 40),     # per-class count
    st.floats(0.05, 1.0),   # fraction
    st.integers(0, 1000),   # seed
)
def test_stratified_fraction_properties(classes, per_class, fraction, seed):
    labels = np.repeat(np.arange(classes), per_class)
    idx = stratified_label_fraction(labels, fraction,
                                    np.random.default_rng(seed))
    # No duplicates, all valid, every class represented.
    assert len(np.unique(idx)) == len(idx)
    assert idx.min() >= 0 and idx.max() < len(labels)
    picked = labels[idx]
    assert set(picked.tolist()) == set(range(classes))
    # Per-class counts match the rounded fraction (with floor of 1).
    expected = max(1, int(round(fraction * per_class)))
    counts = np.bincount(picked, minlength=classes)
    assert np.all(counts == min(expected, per_class))
