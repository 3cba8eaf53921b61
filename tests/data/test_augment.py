"""Augmentation pipeline tests."""

import numpy as np
import pytest

from repro.data import (
    ColorJitter,
    Compose,
    GaussianBlur,
    RandomGrayscale,
    RandomHorizontalFlip,
    RandomResizedCrop,
    TwoViewTransform,
    simclr_augmentations,
)
from repro.data.augment import resize_bilinear


@pytest.fixture
def image(rng):
    return rng.random((3, 16, 16)).astype(np.float32)


class TestResize:
    def test_identity_size(self, image):
        out = resize_bilinear(image, 16, 16)
        np.testing.assert_array_equal(out, image)

    def test_upscale_shape(self, image):
        assert resize_bilinear(image, 32, 24).shape == (3, 32, 24)

    def test_constant_image_preserved(self):
        img = np.full((3, 8, 8), 0.7, dtype=np.float32)
        out = resize_bilinear(img, 16, 16)
        np.testing.assert_allclose(out, 0.7, rtol=1e-6)

    def test_values_interpolate_within_range(self, image):
        out = resize_bilinear(image, 7, 9)
        assert out.min() >= image.min() - 1e-6
        assert out.max() <= image.max() + 1e-6


class TestCrop:
    def test_preserves_shape(self, image, rng):
        out = RandomResizedCrop()(image, rng)
        assert out.shape == image.shape

    def test_changes_content(self, image, rng):
        out = RandomResizedCrop(scale=(0.3, 0.5))(image, rng)
        assert not np.array_equal(out, image)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            RandomResizedCrop(scale=(0.0, 1.0))

    def test_full_scale_possible(self, image):
        out = RandomResizedCrop(scale=(1.0, 1.0), ratio=(1.0, 1.0))(
            image, np.random.default_rng(0)
        )
        np.testing.assert_allclose(out, image, atol=1e-5)


class TestFlip:
    def test_always_flips_at_p1(self, image, rng):
        out = RandomHorizontalFlip(p=1.0)(image, rng)
        np.testing.assert_array_equal(out, image[:, :, ::-1])

    def test_never_flips_at_p0(self, image, rng):
        out = RandomHorizontalFlip(p=0.0)(image, rng)
        np.testing.assert_array_equal(out, image)

    def test_double_flip_is_identity(self, image, rng):
        flip = RandomHorizontalFlip(p=1.0)
        np.testing.assert_array_equal(flip(flip(image, rng), rng), image)


class TestColorOps:
    def test_jitter_keeps_range(self, image, rng):
        out = ColorJitter(0.8, 0.8, 0.8)(image, rng)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_zero_jitter_is_identity(self, image, rng):
        out = ColorJitter(0.0, 0.0, 0.0)(image, rng)
        np.testing.assert_allclose(out, image, atol=1e-6)

    def test_grayscale_equalizes_channels(self, image):
        out = RandomGrayscale(p=1.0)(image, np.random.default_rng(0))
        np.testing.assert_allclose(out[0], out[1])
        np.testing.assert_allclose(out[1], out[2])

    def test_grayscale_p0_identity(self, image, rng):
        np.testing.assert_array_equal(
            RandomGrayscale(p=0.0)(image, rng), image
        )


class TestBlurNoise:
    def test_blur_reduces_variance(self, rng):
        img = rng.random((3, 16, 16)).astype(np.float32)
        out = GaussianBlur(sigma=(1.0, 1.0), p=1.0)(img, rng)
        assert out.var() < img.var()

    def test_blur_preserves_mean(self, rng):
        img = rng.random((3, 16, 16)).astype(np.float32)
        out = GaussianBlur(sigma=(0.8, 0.8), p=1.0)(img, rng)
        assert abs(out.mean() - img.mean()) < 0.02


class TestComposeAndViews:
    def test_compose_order(self, image, rng):
        pipeline = Compose([
            lambda img, r: img + 1.0,
            lambda img, r: img * 2.0,
        ])
        out = pipeline(image, rng)
        np.testing.assert_allclose(out, (image + 1.0) * 2.0)

    def test_two_views_differ(self, image):
        two = TwoViewTransform(simclr_augmentations())
        v1, v2 = two(image, np.random.default_rng(0))
        assert v1.shape == v2.shape == image.shape
        assert not np.array_equal(v1, v2)

    def test_simclr_recipe_shape_stable(self, image, rng):
        out = simclr_augmentations()(image, rng)
        assert out.shape == image.shape

    def test_strength_zero_is_mild(self, image):
        # strength=0 disables jitter/grayscale/blur; only crop+flip remain.
        pipeline = simclr_augmentations(strength=0.0)
        out = pipeline(image, np.random.default_rng(0))
        assert out.shape == image.shape

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            simclr_augmentations(strength=-1.0)
