"""Datasets, loaders, and augmentations.

The reproduction environment has no network access, so CIFAR-100 and
ImageNet are substituted with procedurally generated class-structured image
datasets (see :mod:`repro.data.synthetic` for the construction and
DESIGN.md for why the substitution preserves the paper's comparisons), and
Pascal VOC with a synthetic detection dataset
(:mod:`repro.data.detection`).
"""

from .augment import (
    Augmentation,
    ColorJitter,
    Compose,
    GaussianBlur,
    RandomGrayscale,
    RandomHorizontalFlip,
    RandomResizedCrop,
    TwoViewTransform,
    simclr_augmentations,
)
from .datasets import ArrayDataset, DataLoader, Dataset, Subset, stratified_label_fraction
from .synthetic import (
    SyntheticConfig,
    SyntheticImages,
    make_cifar100_like,
    make_imagenet_like,
)

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "DataLoader",
    "stratified_label_fraction",
    "SyntheticConfig",
    "SyntheticImages",
    "make_cifar100_like",
    "make_imagenet_like",
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
