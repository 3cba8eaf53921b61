"""Dataset / DataLoader abstractions and semi-supervised label splits."""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.rng import derive_rng, ensure_rng

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "DataLoader",
    "stratified_label_fraction",
]


class Dataset:
    """Minimal map-style dataset interface."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int):
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Dataset over in-memory arrays: (images CHW float32, integer labels)."""

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        images = np.asarray(images, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int64)
        if len(images) != len(labels):
            raise ValueError(
                f"{len(images)} images but {len(labels)} labels"
            )
        self.images = images
        self.labels = labels

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def save(self, path: str) -> None:
        """Persist images and labels to a compressed ``.npz`` file."""
        np.savez_compressed(path, images=self.images, labels=self.labels)

    @classmethod
    def load(cls, path: str) -> "ArrayDataset":
        """Load a dataset written by :meth:`save`."""
        with np.load(path) as archive:
            return cls(archive["images"], archive["labels"])


class Subset(Dataset):
    """View of a dataset restricted to ``indices``."""

    def __init__(self, dataset: Dataset, indices: Sequence[int]) -> None:
        self.dataset = dataset
        self.indices = list(int(i) for i in indices)
        n = len(dataset)
        for i in self.indices:
            if not 0 <= i < n:
                raise IndexError(f"index {i} out of range for dataset of {n}")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int):
        return self.dataset[self.indices[index]]


def stratified_label_fraction(
    labels: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
    min_per_class: int = 1,
) -> np.ndarray:
    """Indices of a class-stratified ``fraction`` of the labels.

    This implements the paper's semi-supervised protocol (fine-tuning with
    10% or 1% labels): each class keeps ``max(min_per_class,
    round(fraction * class_count))`` examples, sampled without replacement.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    labels = np.asarray(labels)
    picked: List[np.ndarray] = []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        keep = max(min_per_class, int(round(fraction * len(members))))
        keep = min(keep, len(members))
        picked.append(rng.choice(members, size=keep, replace=False))
    return np.sort(np.concatenate(picked))


# Second spawn-key word separating the loader's RNG domains, so the
# shuffle stream of epoch e can never collide with sample index e.
_SHUFFLE_DOMAIN = 1
_SAMPLE_DOMAIN = 2


class DataLoader:
    """Mini-batch iterator with shuffling and optional transform.

    ``transform(image, rng) -> image-or-tuple`` augments each sample; when
    it returns a tuple (e.g. two augmented views), the loader yields one
    stacked array per tuple slot, enabling the two-view contrastive batches.
    A batched transform (``transform.batched``, see
    :mod:`repro.data.augment`) runs in two halves: ``draw`` takes each
    sample's parameters from that sample's generator, in batch order, and
    one ``apply`` augments the stacked batch.  The batch equals the
    per-sample calls byte for byte, and every generator is consumed
    exactly as a per-sample call would.  Any other callable runs once per
    sample.

    Two seeding modes:

    - **Legacy stream** (``rng=...``): shuffle and every per-sample
      transform consume one stateful generator in iteration order.
      Deterministic for inline iteration, but inherently serial.
    - **Order-independent** (``seed=...``): the shuffle of epoch ``e``
      uses a generator derived from ``(seed, epoch)`` and each sample's
      transform uses one derived from ``(seed, epoch, sample_index)``
      (``sample_index`` is the *dataset* index, not the batch position).
      Batches are then byte-identical no matter which worker produces
      them — the contract ``num_workers > 0`` builds on.  Loader state is
      a single epoch counter, captured by ``state_dict()`` so bit-exact
      checkpoint resume holds.

    ``num_workers > 0`` materialises batches ahead of the consumer with
    :class:`repro.parallel.PrefetchLoader` (fork process pool, thread
    fallback); up to ``num_workers * prefetch_factor`` batches are in
    flight.  Parallel collation requires the order-independent mode.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        shuffle: bool = False,
        drop_last: bool = False,
        transform: Optional[Callable] = None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        num_workers: int = 0,
        prefetch_factor: int = 2,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if num_workers < 0:
            raise ValueError(
                f"num_workers must be >= 0 (0 means inline collation), "
                f"got {num_workers}"
            )
        if prefetch_factor <= 0:
            raise ValueError(
                f"prefetch_factor must be >= 1 (batches in flight per "
                f"worker), got {prefetch_factor}"
            )
        if seed is not None:
            if rng is not None:
                raise ValueError(
                    "pass either rng= (legacy sequential stream) or seed= "
                    "(order-independent per-sample streams), not both"
                )
            if seed < 0:
                raise ValueError(f"seed must be >= 0, got {seed}")
        elif num_workers > 0:
            raise ValueError(
                "num_workers > 0 requires seed= (order-independent "
                "seeding); a shared rng= stream cannot be split across "
                "workers deterministically"
            )
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.transform = transform
        self.seed = seed
        self.num_workers = num_workers
        self.prefetch_factor = prefetch_factor
        # Legacy mode keeps the historical always-present generator; the
        # seeded mode is stateless apart from the epoch counter, so
        # trainer checkpoints skip the rng capture (rng is None).
        self.rng = None if seed is not None else ensure_rng(rng)
        self._epoch = 0
        self._prefetcher = None

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return math.ceil(n / self.batch_size)

    # -- order-independent epoch protocol (used inline and by workers) ----
    def next_epoch(self) -> int:
        """Consume and return the current epoch index (seeded mode)."""
        epoch = self._epoch
        self._epoch = epoch + 1
        return epoch

    def epoch_batches(self, epoch: int) -> List[np.ndarray]:
        """Index chunks of one epoch, in yield order.

        In seeded mode the permutation derives from ``(seed, epoch)``; in
        legacy mode it consumes the loader's stateful generator.
        """
        order = np.arange(len(self.dataset))
        if self.shuffle:
            if self.seed is not None:
                derive_rng(self.seed, _SHUFFLE_DOMAIN, epoch).shuffle(order)
            else:
                self.rng.shuffle(order)
        chunks = []
        for start in range(0, len(order), self.batch_size):
            chunk = order[start : start + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                break
            chunks.append(chunk)
        return chunks

    def collate(self, epoch: int, indices: np.ndarray):
        """Materialise one batch; pure in seeded mode (worker-safe).

        Sample ``i``'s generator is the loader's shared stream (legacy
        mode) or the one derived from ``(seed, epoch, i)``; samples take
        theirs in batch order.
        """
        def sample_rng(index: int) -> np.random.Generator:
            if self.seed is None:
                return self.rng
            return derive_rng(self.seed, _SAMPLE_DOMAIN, epoch, index)

        indices = [int(i) for i in indices]
        samples = [self.dataset[i] for i in indices]
        images = [image for image, _ in samples]
        labels = np.asarray([label for _, label in samples], dtype=np.int64)
        transform = self.transform
        if transform is None:
            batch = np.stack(images)
        elif getattr(transform, "batched", False):
            params = [transform.draw(sample_rng(i), image.shape)
                      for i, image in zip(indices, images)]
            batch = transform.apply(np.stack(images), params)
        else:
            outputs = [transform(image, sample_rng(i))
                       for i, image in zip(indices, images)]
            if isinstance(outputs[0], tuple):
                batch = tuple(np.stack(view) for view in zip(*outputs))
            else:
                batch = np.stack(outputs)
        views = batch if isinstance(batch, tuple) else (batch,)
        return (*(v.astype(np.float32, copy=False) for v in views), labels)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, ...]]:
        if self.num_workers > 0:
            if self._prefetcher is None:
                from ..parallel import PrefetchLoader

                self._prefetcher = PrefetchLoader(
                    self,
                    num_workers=self.num_workers,
                    prefetch_factor=self.prefetch_factor,
                )
            return self._prefetcher.iter_epoch()
        return self._iter_inline()

    def _iter_inline(self) -> Iterator[Tuple[np.ndarray, ...]]:
        epoch = self.next_epoch()
        for chunk in self.epoch_batches(epoch):
            yield self.collate(epoch, chunk)

    @property
    def queue_depth(self) -> int:
        """Prefetched batches currently in flight (0 when inline)."""
        if self._prefetcher is None:
            return 0
        return self._prefetcher.queue_depth

    def close(self) -> None:
        """Shut down the worker pool, if one was started."""
        if self._prefetcher is not None:
            self._prefetcher.close()
            self._prefetcher = None

    # -- checkpoint state -------------------------------------------------
    def state_dict(self) -> dict:
        """Loader progress for bit-exact resume.

        Seeded mode is fully described by the epoch counter; legacy mode
        captures the stateful shuffle and augmentation generator.  Trainer
        checkpoints carry this dict as ``loader_state``.
        """
        if self.seed is not None:
            return {"mode": "seeded", "seed": int(self.seed),
                    "epoch": int(self._epoch)}
        from ..checkpoint import get_rng_state

        return {"mode": "legacy", "rng": get_rng_state(self.rng)}

    def load_state_dict(self, state: dict) -> None:
        mode = state.get("mode")
        if mode == "seeded":
            if self.seed is None:
                raise ValueError(
                    "checkpoint holds a seeded loader state but this "
                    "loader uses a legacy rng stream"
                )
            self._epoch = int(state["epoch"])
        elif mode == "legacy":
            if self.rng is None:
                raise ValueError(
                    "checkpoint holds a legacy loader rng but this "
                    "loader uses order-independent seeding"
                )
            from ..checkpoint import set_rng_state

            set_rng_state(self.rng, state["rng"])
        else:
            raise ValueError(f"unknown loader state mode {mode!r}")
