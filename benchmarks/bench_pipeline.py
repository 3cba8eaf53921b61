"""Data pipeline benchmark: inline fetch, prefetching loader, sweep executor.

Three measurements, written to ``BENCH_pipeline.json`` at the repo root:

- **fetch** — ms per inline ``DataLoader.collate`` at the training
  workloads' shape (32 images, two SimCLR views, 3x12x12), and the same
  batches split phase by phase: per-sample RNG derivation, the draws,
  reading and stacking the ``2N`` batch, each op's batched ``apply``, and
  the float32 casts.  The rows must sum to the collate time within 10%.
- **prefetch** — steps/sec of one CQ-C trainer fed by the same seeded
  two-view loader inline (``num_workers=0``) and through the fork
  prefetch pool, in interleaved rounds.  The augmentation recipe is the
  full SimCLR stack, so batch materialisation is a real fraction of the
  step; prefetching overlaps it with the training compute.
- **sweep** — wall-clock of N independent pretrain jobs run serially
  versus through :class:`repro.parallel.SweepExecutor`'s process pool.

Both speedups are bounded by the machine's core count (recorded as
``cpu_count`` in the JSON, next to the parent process's OpenBLAS
``blas_threads``): on a single-core box the overlap has nowhere to run
and the honest ratio is ~1.0x or below; the acceptance targets (>=1.3x
prefetch, >=2x sweep) need a multi-core host.

    PYTHONPATH=src python benchmarks/bench_pipeline.py           # full
    PYTHONPATH=src python benchmarks/bench_pipeline.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.contrastive import ContrastiveQuantTrainer, SimCLRModel
from repro.data import DataLoader, TwoViewTransform, simclr_augmentations
from repro.data.datasets import _SAMPLE_DOMAIN, ArrayDataset
from repro.models import resnet18
from repro.nn.optim import Adam
from repro.nn.rng import derive_rng
from repro.parallel import SweepExecutor, SweepJob
from repro.parallel.blas import blas_threads

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pipeline.json"

PRECISION_SET = "2-8"
IMAGE_SIZE = 12
WIDTH = 0.0625
LOADER_SEED = 123
FETCH_BATCH = 32  # train-paper / train-replay batch size
FETCH_TOLERANCE = 0.10


def make_dataset(n: int) -> ArrayDataset:
    rng = np.random.default_rng(7)
    images = rng.normal(size=(n, 3, IMAGE_SIZE, IMAGE_SIZE))
    labels = rng.integers(0, 4, size=n)
    return ArrayDataset(images.astype(np.float32), labels)


def make_trainer(seed: int = 0) -> ContrastiveQuantTrainer:
    encoder = resnet18(stem="cifar", width_multiplier=WIDTH,
                       rng=np.random.default_rng(seed), norm="group")
    model = SimCLRModel(encoder, projection_dim=16,
                        rng=np.random.default_rng(seed + 1),
                        head_norm="layer")
    return ContrastiveQuantTrainer(
        model, "C", PRECISION_SET,
        Adam(model.parameters(), lr=1e-3),
        rng=np.random.default_rng(seed + 2),
        fuse_views=True, weight_cache=True,
    )


def make_loader(dataset: ArrayDataset, batch: int,
                num_workers: int) -> DataLoader:
    return DataLoader(
        dataset,
        batch_size=batch,
        shuffle=True,
        drop_last=True,
        transform=TwoViewTransform(simclr_augmentations(1.0)),
        seed=LOADER_SEED,
        num_workers=num_workers,
    )


def _fetch_phases(loader: DataLoader, epoch: int, indices: np.ndarray,
                  phases: Dict[str, float]):
    """One seeded two-view ``collate``, timed phase by phase into ``phases``.

    Runs the steps ``DataLoader.collate`` runs for a batched transform,
    in its order, and returns the same batch.
    """
    two = loader.transform
    lap = time.perf_counter()

    def close(row: str) -> None:
        nonlocal lap
        now = time.perf_counter()
        phases[row] += now - lap
        lap = now

    indices = [int(i) for i in indices]
    rngs = [derive_rng(loader.seed, _SAMPLE_DOMAIN, epoch, i)
            for i in indices]
    close("derive_rng")
    samples = [loader.dataset[i] for i in indices]
    images = [image for image, _ in samples]
    params = [two.draw(rng, image.shape) for rng, image in zip(rngs, images)]
    close("draw")
    n = len(images)
    batch = np.stack(images)
    batch = np.concatenate([batch, batch])
    view_params = [p[0] for p in params] + [p[1] for p in params]
    close("stack")
    for k, op in enumerate(two.transform.transforms):
        batch = op.apply(batch, [p[k] for p in view_params])
        close(f"apply.{type(op).__name__}")
    out = (batch[:n].astype(np.float32, copy=False),
           batch[n:].astype(np.float32, copy=False),
           np.asarray([label for _, label in samples], dtype=np.int64))
    close("cast")
    return out


def bench_fetch(n: int, epochs: int) -> Dict[str, object]:
    """Inline collate time and its phase split, batch by batch.

    Every batch is collated whole, then again through
    :func:`_fetch_phases`; the two must agree byte for byte, and the
    phase means must add up to the collate mean within 10%.
    """
    loader = make_loader(make_dataset(n), FETCH_BATCH, num_workers=0)
    phases: Dict[str, float] = defaultdict(float)
    collate = 0.0
    batches = 0
    for epoch in range(epochs + 1):  # epoch 0 warms up, untimed
        if epoch == 1:
            phases.clear()
            collate, batches = 0.0, 0
        for chunk in loader.epoch_batches(epoch):
            start = time.perf_counter()
            whole = loader.collate(epoch, chunk)
            collate += time.perf_counter() - start
            split = _fetch_phases(loader, epoch, chunk, phases)
            batches += 1
            if any(a.tobytes() != b.tobytes() for a, b in zip(whole, split)):
                raise AssertionError("phase split changed the batch")
    rows = {row: 1e3 * total / batches for row, total in phases.items()}
    collate_ms = 1e3 * collate / batches
    rows_sum = sum(rows.values())
    if abs(rows_sum - collate_ms) > FETCH_TOLERANCE * collate_ms:
        raise AssertionError(
            f"fetch rows sum to {rows_sum:.3f} ms but collate took "
            f"{collate_ms:.3f} ms per batch"
        )
    return {
        "batch_size": FETCH_BATCH,
        "views": 2,
        "image_shape": [3, IMAGE_SIZE, IMAGE_SIZE],
        "batches": batches,
        "collate_ms": collate_ms,
        "rows_sum_ms": rows_sum,
        "ms_per_batch": rows,
    }


def _timed_epoch(trainer: ContrastiveQuantTrainer,
                 loader: DataLoader) -> float:
    start = time.perf_counter()
    for v1, v2, _ in loader:
        trainer.train_step(v1, v2)
    return time.perf_counter() - start


def bench_prefetch(n: int, batch: int, num_workers: int,
                   repeats: int) -> Dict[str, object]:
    """Inline vs prefetched epochs, interleaved round by round.

    Both loaders use the same seed, so every round consumes byte-identical
    batches — the comparison is pure pipeline overhead/overlap.
    Alternating rounds makes both paths sample the same machine-noise
    environment; the median per-round ratio filters residual jitter.
    """
    dataset = make_dataset(n)
    trainers = {"inline": make_trainer(0), "prefetch": make_trainer(0)}
    loaders = {
        "inline": make_loader(dataset, batch, num_workers=0),
        "prefetch": make_loader(dataset, batch, num_workers=num_workers),
    }
    steps = len(loaders["inline"])
    try:
        for loader in loaders.values():  # warmup: pools start, caches fill
            next(iter(loader))
        round_times: Dict[str, List[float]] = {"inline": [], "prefetch": []}
        for _ in range(repeats):
            for mode in ("inline", "prefetch"):
                round_times[mode].append(
                    _timed_epoch(trainers[mode], loaders[mode])
                )
    finally:
        for loader in loaders.values():
            loader.close()
    ratios = sorted(i / p for i, p in zip(round_times["inline"],
                                          round_times["prefetch"]))
    return {
        "num_workers": num_workers,
        "steps_per_epoch": steps,
        "repeats": repeats,
        "inline_steps_per_sec": steps / min(round_times["inline"]),
        "prefetch_steps_per_sec": steps / min(round_times["prefetch"]),
        "speedup": ratios[len(ratios) // 2],
    }


def _sweep_job(seed: int, n: int, batch: int, epochs: int,
               telemetry_dir: Optional[str] = None) -> float:
    """One independent pretrain job; returns its final loss."""
    trainer = make_trainer(seed)
    loader = make_loader(make_dataset(n), batch, num_workers=0)
    try:
        history = trainer.fit(loader, epochs=epochs)
    finally:
        loader.close()
    return history["loss"][-1]


def bench_sweep(jobs: int, n: int, batch: int,
                epochs: int) -> Dict[str, object]:
    """Serial vs process-parallel wall-clock over independent jobs."""
    specs = [
        SweepJob(f"job-{seed}", _sweep_job,
                 {"seed": seed, "n": n, "batch": batch, "epochs": epochs})
        for seed in range(jobs)
    ]
    serial = SweepExecutor(max_workers=1, backend="serial").run(specs)
    parallel = SweepExecutor(max_workers=jobs, backend="auto").run(specs)
    serial.raise_failures()
    parallel.raise_failures()
    if parallel.values() != serial.values():
        raise AssertionError("parallel sweep changed job results")
    return {
        "jobs": jobs,
        "backend": parallel.backend,
        "serial_seconds": serial.elapsed_seconds,
        "parallel_seconds": parallel.elapsed_seconds,
        "speedup": serial.elapsed_seconds / parallel.elapsed_seconds,
    }


def run(n: int, batch: int, num_workers: int, repeats: int,
        jobs: int, job_epochs: int, fetch_epochs: int) -> Dict[str, object]:
    fetch = bench_fetch(n, fetch_epochs)
    print(f"fetch     collate {fetch['collate_ms']:6.2f} ms/batch   rows "
          f"sum {fetch['rows_sum_ms']:6.2f} ms")
    for row, ms in fetch["ms_per_batch"].items():
        print(f"          {row:<30s} {ms:6.3f} ms")
    prefetch = bench_prefetch(n, batch, num_workers, repeats)
    print(
        f"prefetch  inline {prefetch['inline_steps_per_sec']:6.2f} steps/s   "
        f"workers={num_workers} {prefetch['prefetch_steps_per_sec']:6.2f} "
        f"steps/s   speedup {prefetch['speedup']:.2f}x"
    )
    sweep = bench_sweep(jobs, n, batch, job_epochs)
    print(
        f"sweep     serial {sweep['serial_seconds']:6.2f} s   "
        f"{jobs} jobs/{sweep['backend']} {sweep['parallel_seconds']:6.2f} s   "
        f"speedup {sweep['speedup']:.2f}x"
    )
    return {
        "benchmark": "bench_pipeline",
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "note": "speedups are bounded by cpu_count; the >=1.3x prefetch "
                "and >=2x sweep targets need a multi-core host",
        "config": {
            "encoder": "resnet18(norm='group')",
            "width_multiplier": WIDTH,
            "image_size": IMAGE_SIZE,
            "dataset_size": n,
            "batch_size": batch,
            "precision_set": PRECISION_SET,
            "augmentation_strength": 1.0,
            "num_workers": num_workers,
            "repeats": repeats,
            "sweep_jobs": jobs,
            "sweep_job_epochs": job_epochs,
            "fetch_epochs": fetch_epochs,
        },
        "fetch": fetch,
        "prefetch": prefetch,
        "sweep": sweep,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny smoke configuration for CI")
    parser.add_argument("--num-workers", type=int, default=None,
                        help="prefetch worker count")
    parser.add_argument("--jobs", type=int, default=None,
                        help="sweep job / worker count")
    parser.add_argument("--batch", type=int, default=None,
                        help="per-view batch size")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    n = 64 if args.quick else 256
    batch = args.batch or (8 if args.quick else 16)
    num_workers = args.num_workers or (2 if args.quick else 4)
    repeats = 1 if args.quick else 5
    jobs = args.jobs or (2 if args.quick else 4)
    job_epochs = 1
    fetch_epochs = 24 if args.quick else 40

    payload = run(n=n, batch=batch, num_workers=num_workers,
                  repeats=repeats, jobs=jobs, job_epochs=job_epochs,
                  fetch_epochs=fetch_epochs)
    payload["quick"] = args.quick
    args.output.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
