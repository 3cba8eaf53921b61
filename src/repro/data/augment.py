"""Input augmentations (numpy, float images in [0, 1]).

The pipeline mirrors SimCLR's recipe: random resized crop, horizontal flip,
color jitter, random grayscale, Gaussian blur.  Every op is an
:class:`Augmentation` split into two halves:

- ``draw(rng, shape) -> params`` makes all of the op's generator calls for
  one CHW image of ``shape``.  No draw reads pixel values, so a loader can
  draw every sample's parameters first, each from that sample's generator.
- ``apply(batch, params) -> batch`` runs the op once over an NCHW batch,
  given one ``params`` entry per image.  Every op keeps the image shape.

``op(image, rng)`` is ``apply`` on a batch of one, so a batch equals its
stacked per-image calls byte for byte: the jitter means reduce each image
in C order whatever the batch size.  :class:`Compose` and
:class:`TwoViewTransform` split the same way when every op they hold does
(``batched``); one holding a plain ``transform(image, rng)`` callable
runs per image.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

__all__ = [
    "resize_bilinear",
    "Augmentation",
    "Compose",
    "RandomResizedCrop",
    "RandomHorizontalFlip",
    "ColorJitter",
    "RandomGrayscale",
    "GaussianBlur",
    "TwoViewTransform",
    "simclr_augmentations",
]

Transform = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def _taps(out_size: int, size: np.ndarray):
    """Bilinear source taps and weights for resizing ``size`` to ``out_size``.

    ``size`` is an ``(N, 1)`` array of source extents, one per image.
    """
    # Sample positions in source coordinates (align corners = False style).
    pos = (np.arange(out_size) + 0.5) * size / out_size - 0.5
    pos = np.clip(pos, 0, size - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, size - 1)
    return lo, hi, pos - lo


def _crop_resize(batch: np.ndarray, boxes: np.ndarray, out_h: int,
                 out_w: int) -> np.ndarray:
    """Bilinear resize of box ``(top, left, height, width)`` of each image.

    All four corner taps of every output pixel come from one ``np.take``
    of flat ``(image, row, column)`` indices into each channel's plane;
    the interpolation runs in float64, as a float32 image times a float64
    weight does.
    """
    n, c, h, w = batch.shape
    top, left, box_h, box_w = (boxes[:, k : k + 1] for k in range(4))
    y0, y1, wy = _taps(out_h, box_h)
    x0, x1, wx = _taps(out_w, box_w)
    rows = (top + np.stack([y0, y1])) * w + np.arange(n)[:, None] * (h * w)
    cols = left + np.stack([x0, x1])
    index = rows[:, None, :, :, None] + cols[None, :, :, None, :]
    planes = np.ascontiguousarray(batch.transpose(1, 0, 2, 3)).reshape(c, -1)
    corner = np.take(planes, index, axis=1)  # (C, 2, 2, N, out_h, out_w)
    wx = wx[:, None, :]
    wy = wy[:, :, None]
    upper = corner[:, 0, 0] * (1 - wx) + corner[:, 0, 1] * wx
    lower = corner[:, 1, 0] * (1 - wx) + corner[:, 1, 1] * wx
    out = upper * (1 - wy) + lower * wy
    return out.transpose(1, 0, 2, 3).astype(batch.dtype, order="C")


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of a CHW image."""
    _, h, w = image.shape
    return _crop_resize(image[None], np.array([[0, 0, h, w]]), out_h, out_w)[0]


def _as_column(values, dtype) -> np.ndarray:
    """Per-image scalars as an ``(N, 1, 1, 1)`` array that broadcasts on NCHW."""
    return np.asarray(values, dtype=dtype).reshape(-1, 1, 1, 1)


class Augmentation:
    """One random op: per-image ``draw`` plus one batched ``apply``."""

    batched = True

    def draw(self, rng: np.random.Generator, shape: Tuple[int, ...]):
        """This op's random parameters for one CHW image of ``shape``."""
        raise NotImplementedError

    def apply(self, batch: np.ndarray, params: Sequence) -> np.ndarray:
        """Run the op on an NCHW ``batch``, ``params[i]`` for image ``i``."""
        raise NotImplementedError

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.apply(image[None], [self.draw(rng, image.shape)])[0]


def _batched(transform) -> bool:
    return getattr(transform, "batched", False)


class Compose:
    """Apply transforms in sequence."""

    def __init__(self, transforms: Sequence[Transform]) -> None:
        self.transforms = list(transforms)

    @property
    def batched(self) -> bool:
        return all(_batched(t) for t in self.transforms)

    def draw(self, rng: np.random.Generator, shape: Tuple[int, ...]):
        return [t.draw(rng, shape) for t in self.transforms]

    def apply(self, batch: np.ndarray, params: Sequence) -> np.ndarray:
        for k, transform in enumerate(self.transforms):
            batch = transform.apply(batch, [p[k] for p in params])
        return batch

    def __call__(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for transform in self.transforms:
            image = transform(image, rng)
        return image


class RandomResizedCrop(Augmentation):
    """Crop a random area/aspect patch and resize back to the input size."""

    def __init__(
        self,
        scale: Tuple[float, float] = (0.4, 1.0),
        ratio: Tuple[float, float] = (0.75, 1.333),
    ) -> None:
        if not 0 < scale[0] <= scale[1] <= 1.0:
            raise ValueError(f"invalid scale range {scale}")
        self.scale = scale
        self.ratio = ratio
        self._log_ratio = (np.log(ratio[0]), np.log(ratio[1]))

    def draw(self, rng, shape):
        """The crop box ``(top, left, height, width)``."""
        _, h, w = shape
        area = h * w
        for _ in range(10):
            target_area = area * rng.uniform(*self.scale)
            aspect = np.exp(rng.uniform(*self._log_ratio))
            # math.sqrt and np.sqrt are both correctly rounded.
            crop_w = int(round(math.sqrt(target_area * aspect)))
            crop_h = int(round(math.sqrt(target_area / aspect)))
            if 0 < crop_w <= w and 0 < crop_h <= h:
                top = rng.integers(0, h - crop_h + 1)
                left = rng.integers(0, w - crop_w + 1)
                return top, left, crop_h, crop_w
        return 0, 0, h, w  # fallback: degenerate geometry keeps the image

    def apply(self, batch, params):
        return _crop_resize(batch, np.array(params), *batch.shape[2:])


class RandomHorizontalFlip(Augmentation):
    def __init__(self, p: float = 0.5) -> None:
        self.p = p

    def draw(self, rng, shape):
        return rng.random() < self.p

    def apply(self, batch, params):
        flip = np.array(params, dtype=bool)
        if not flip.any():
            return batch
        return np.where(_as_column(flip, bool), batch[..., ::-1], batch)


class ColorJitter(Augmentation):
    """Random brightness / contrast / saturation perturbation."""

    def __init__(
        self,
        brightness: float = 0.4,
        contrast: float = 0.4,
        saturation: float = 0.4,
    ) -> None:
        self.brightness = brightness
        self.contrast = contrast
        self.saturation = saturation

    def draw(self, rng, shape):
        """Brightness, contrast and saturation factors; 1.0 where disabled."""
        return [1.0 + rng.uniform(-strength, strength) if strength else 1.0
                for strength in (self.brightness, self.contrast, self.saturation)]

    def apply(self, batch, params):
        # float32 factors: a float32 image times a Python float stays float32.
        brightness, contrast, saturation = (
            _as_column(column, np.float32) for column in zip(*params)
        )
        out = batch.astype(np.float32, order="C")
        if self.brightness:
            out = out * brightness
        if self.contrast:
            mean = _as_column(out.reshape(len(out), -1).mean(axis=1), np.float32)
            out = (out - mean) * contrast + mean
        if self.saturation:
            gray = out.mean(axis=1, keepdims=True)
            out = gray + (out - gray) * saturation
        return np.clip(out, 0.0, 1.0)


class RandomGrayscale(Augmentation):
    def __init__(self, p: float = 0.2) -> None:
        self.p = p

    def draw(self, rng, shape):
        return rng.random() < self.p

    def apply(self, batch, params):
        gray = np.array(params, dtype=bool)
        if not gray.any():
            return batch
        batch = np.ascontiguousarray(batch)
        return np.where(_as_column(gray, bool),
                        batch.mean(axis=1, keepdims=True), batch)


class GaussianBlur(Augmentation):
    """Separable Gaussian blur with randomly sampled sigma."""

    def __init__(self, sigma: Tuple[float, float] = (0.1, 1.0), p: float = 0.5) -> None:
        self.sigma = sigma
        self.p = p

    def draw(self, rng, shape):
        """The blur's sigma, or None when the image stays sharp."""
        if rng.random() >= self.p:
            return None
        return rng.uniform(*self.sigma)

    def apply(self, batch, params):
        by_radius = {}
        for i, sigma in enumerate(params):
            if sigma is not None:
                by_radius.setdefault(max(1, int(2 * sigma)), []).append(i)
        if not by_radius:
            return batch
        out = batch.copy()
        for radius, rows in by_radius.items():
            sigma = np.array([params[i] for i in rows])[:, None]
            offsets = np.arange(-radius, radius + 1)
            kernel = np.exp(-(offsets**2) / (2 * sigma**2))
            kernel /= kernel.sum(axis=1, keepdims=True)
            out[rows] = _separable_blur(batch[rows], kernel, radius)
        return out


def _separable_blur(images: np.ndarray, kernel: np.ndarray,
                    radius: int) -> np.ndarray:
    """Edge-padded blur of NCHW ``images`` with per-image 1-D ``kernel`` rows.

    Each float64 tap is accumulated into an output of the images' dtype.
    """
    h, w = images.shape[2:]
    taps = [_as_column(kernel[:, i], np.float64) for i in range(2 * radius + 1)]
    padded = np.pad(images, ((0, 0), (0, 0), (radius, radius), (0, 0)),
                    mode="edge")
    out = np.zeros_like(images)
    for i, tap in enumerate(taps):
        out += tap * padded[:, :, i : i + h, :]
    padded = np.pad(out, ((0, 0), (0, 0), (0, 0), (radius, radius)),
                    mode="edge")
    final = np.zeros_like(images)
    for i, tap in enumerate(taps):
        final += tap * padded[:, :, :, i : i + w]
    return final


class TwoViewTransform:
    """Produce two independently augmented views (SimCLR positive pair)."""

    def __init__(self, transform: Transform) -> None:
        self.transform = transform

    @property
    def batched(self) -> bool:
        return _batched(self.transform)

    def draw(self, rng: np.random.Generator, shape: Tuple[int, ...]):
        return self.transform.draw(rng, shape), self.transform.draw(rng, shape)

    def apply(self, batch: np.ndarray,
              params: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """Both views of every image, augmented as one batch of ``2N``."""
        n = len(batch)
        views = self.transform.apply(
            np.concatenate([batch, batch]),
            [p[0] for p in params] + [p[1] for p in params],
        )
        return views[:n], views[n:]

    def __call__(
        self, image: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.transform(image, rng), self.transform(image, rng)


def simclr_augmentations(strength: float = 1.0) -> Compose:
    """The SimCLR augmentation recipe, scaled by ``strength``."""
    if strength < 0:
        raise ValueError(f"strength must be non-negative, got {strength}")
    return Compose(
        [
            RandomResizedCrop(scale=(max(0.2, 1.0 - 0.6 * strength), 1.0)),
            RandomHorizontalFlip(),
            ColorJitter(0.4 * strength, 0.4 * strength, 0.4 * strength),
            RandomGrayscale(p=0.2 * strength),
            GaussianBlur(p=0.3 * strength),
        ]
    )
