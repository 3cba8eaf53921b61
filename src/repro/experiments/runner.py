"""Pretrain -> evaluate orchestration used by every benchmark table."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..contrastive import (
    BYOL,
    BYOLTrainer,
    ContrastiveQuantTrainer,
    SimCLRModel,
    SimCLRTrainer,
)
from ..data import DataLoader, TwoViewTransform, simclr_augmentations
from ..data.datasets import ArrayDataset
from ..data.synthetic import SyntheticImages
from ..eval import finetune, linear_evaluation
from ..models import create_encoder
from ..nn.optim import Adam
from ..quant import prepare
from ..telemetry import JsonlLogger, ThroughputMeter
from .config import EvalProtocol, MethodSpec, PretrainConfig

__all__ = [
    "PretrainOutcome",
    "pretrain",
    "finetune_grid",
    "linear_eval_point",
    "run_method_table",
    "sweep_method_table",
    "untrained_outcome",
]

GridKey = Tuple[Optional[int], float]  # (precision, label fraction)


@dataclasses.dataclass
class PretrainOutcome:
    """A pre-trained encoder, stored as reproducible state.

    Downstream evaluations mutate encoders (fine-tuning, precision fixing),
    so each evaluation cell materialises a fresh encoder via
    :meth:`make_encoder` instead of sharing one instance.
    """

    method: MethodSpec
    config: PretrainConfig
    state: Dict[str, np.ndarray]
    history: Dict[str, List[float]]

    def make_encoder(self, quantized: bool = True):
        encoder = create_encoder(
            self.config.encoder,
            width_multiplier=self.config.width_multiplier,
            stem=self.config.stem,
            rng=np.random.default_rng(self.config.seed),
        )
        encoder.load_state_dict(self.state)
        if quantized:
            prepare(encoder)
        return encoder


def _two_view_loader(
    train: ArrayDataset, config: PretrainConfig, seed: int,
    identity_views: bool = False,
) -> DataLoader:
    if identity_views:
        transform = lambda image, _rng: (image, image)  # noqa: E731
    else:
        transform = TwoViewTransform(
            simclr_augmentations(config.augmentation_strength)
        )
    # Order-independent seeding: each sample's augmentation stream derives
    # from (seed, epoch, sample_index), so the produced batches are
    # byte-identical for num_workers = 0 and num_workers = N.
    return DataLoader(
        train,
        batch_size=config.batch_size,
        shuffle=True,
        drop_last=True,
        transform=transform,
        seed=seed,
        num_workers=config.num_workers,
        prefetch_factor=config.prefetch_factor,
    )


def _run_slug(name: str) -> str:
    """Filesystem-safe run name from a method label."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-").lower()
    return slug or "run"


def pretrain(
    method: MethodSpec,
    train: ArrayDataset,
    config: PretrainConfig,
    telemetry_dir: Optional[Union[str, pathlib.Path]] = None,
    callbacks: Tuple = (),
    checkpoint_dir: Optional[Union[str, pathlib.Path]] = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    keep_last: int = 3,
) -> PretrainOutcome:
    """Pre-train one method and capture the encoder state.

    The CQ-Quant variant (Sec. 4.5) trains on identity views — quantization
    is its only augmentation — while every other method uses the SimCLR
    augmentation recipe.

    With ``telemetry_dir``, the run is logged as JSONL under that
    directory (one ``<method>.jsonl`` per method) and a machine-readable
    ``<method>-summary.json`` with final loss and throughput is written
    alongside; extra ``callbacks`` are forwarded to ``fit()`` as-is.

    With ``checkpoint_dir``, trainer state is saved every
    ``checkpoint_every`` epochs into ``<checkpoint_dir>/<method-slug>/``
    (atomic, sha256-manifested, ``keep_last`` retained).  ``resume=True``
    continues from the newest valid checkpoint there, bit-exact with the
    uninterrupted run; an empty or fully corrupt directory starts fresh.
    """
    rng = np.random.default_rng(config.seed)
    encoder = create_encoder(
        config.encoder,
        width_multiplier=config.width_multiplier,
        stem=config.stem,
        rng=np.random.default_rng(config.seed),
    )

    if method.base == "byol":
        model = BYOL(
            encoder,
            projection_dim=config.projection_dim,
            momentum=config.byol_momentum,
            rng=rng,
        )
        params = list(model.trainable_parameters())
    else:
        model = SimCLRModel(encoder, projection_dim=config.projection_dim,
                            rng=rng)
        params = list(model.parameters())

    # Symbolic shape propagation over the assembled model: a wrong
    # encoder/head combination raises ShapeError (with the partial
    # per-layer trace) here, before any forward pass or epoch runs.
    from ..analysis import shapecheck

    shapecheck(
        model,
        (config.batch_size,) + tuple(train.images.shape[1:]),
        dtype=train.images.dtype,
    )

    optimizer = Adam(params, lr=config.lr)

    identity_views = False
    if method.is_baseline:
        if method.base == "byol":
            trainer = BYOLTrainer(model, optimizer)
        else:
            trainer = SimCLRTrainer(model, optimizer,
                                    temperature=config.temperature)
    else:
        trainer = ContrastiveQuantTrainer(
            model,
            method.variant,
            method.precision_set,
            optimizer,
            rng=np.random.default_rng(config.seed + 7),
            temperature=config.temperature,
            fuse_views=config.fuse_views,
            engine=config.engine,
        )
        identity_views = trainer.variant.name == "QUANT"

    loader = _two_view_loader(train, config, seed=config.seed + 13,
                              identity_views=identity_views)

    fit_callbacks = list(callbacks)
    logger = meter = None
    if telemetry_dir is not None:
        slug = candidate = _run_slug(method.name)
        suffix = 1
        while (pathlib.Path(telemetry_dir) / f"{candidate}.jsonl").exists():
            candidate = f"{slug}-{suffix}"
            suffix += 1
        logger = JsonlLogger(telemetry_dir, run_name=candidate)
        meter = ThroughputMeter()
        fit_callbacks += [logger, meter]

    resume_from = None
    if checkpoint_dir is not None:
        from ..checkpoint import CheckpointCallback, Checkpointer

        checkpointer = Checkpointer(
            pathlib.Path(checkpoint_dir) / _run_slug(method.name),
            keep_last=keep_last,
            telemetry=logger,
        )
        fit_callbacks.append(
            CheckpointCallback(checkpointer, every=checkpoint_every)
        )
        if resume:
            resume_from = checkpointer

    try:
        history = trainer.fit(loader, epochs=config.epochs,
                              callbacks=tuple(fit_callbacks),
                              resume_from=resume_from)
    finally:
        loader.close()  # stop prefetch workers, if any
    if isinstance(trainer, ContrastiveQuantTrainer):
        trainer.finalize()

    if logger is not None:
        summary = {
            "method": method.name,
            "trainer": type(trainer).__name__,
            "epochs": config.epochs,
            "final_loss": history["loss"][-1] if history["loss"] else None,
            "run_log": logger.path.name,
            **meter.summary(),
        }
        summary_path = logger.directory / f"{logger.run_name}-summary.json"
        summary_path.write_text(json.dumps(summary, indent=2) + "\n",
                                encoding="utf-8")

    return PretrainOutcome(
        method=method,
        config=config,
        state=encoder.state_dict(),
        history=history,
    )


def untrained_outcome(method_name: str, config: PretrainConfig) -> PretrainOutcome:
    """A "No SSL Training" baseline: freshly initialised encoder state."""
    encoder = create_encoder(
        config.encoder,
        width_multiplier=config.width_multiplier,
        stem=config.stem,
        rng=np.random.default_rng(config.seed),
    )
    return PretrainOutcome(
        method=MethodSpec(name=method_name),
        config=config,
        state=encoder.state_dict(),
        history={"loss": []},
    )


def finetune_grid(
    outcome: PretrainOutcome,
    train: ArrayDataset,
    test: ArrayDataset,
    protocol: EvalProtocol,
) -> Dict[GridKey, float]:
    """Fine-tune over the (precision x label-fraction) grid; values in %."""
    results: Dict[GridKey, float] = {}
    for precision in protocol.precisions:
        for fraction in protocol.label_fractions:
            accuracies = []
            for seed_offset in range(protocol.num_seeds):
                encoder = outcome.make_encoder(quantized=True)
                result = finetune(
                    encoder,
                    train,
                    test,
                    label_fraction=fraction,
                    precision=precision,
                    epochs=protocol.finetune_epochs,
                    batch_size=protocol.batch_size,
                    lr=protocol.finetune_lr,
                    rng=np.random.default_rng(protocol.seed + seed_offset),
                )
                accuracies.append(result.test_accuracy_percent)
            results[(precision, fraction)] = float(np.mean(accuracies))
    return results


def linear_eval_point(
    outcome: PretrainOutcome,
    train: ArrayDataset,
    test: ArrayDataset,
    protocol: EvalProtocol,
    precision: Optional[int] = None,
) -> float:
    """Linear-evaluation accuracy (%) for one pre-trained encoder."""
    encoder = outcome.make_encoder(quantized=precision is not None)
    return 100.0 * linear_evaluation(
        encoder,
        train,
        test,
        epochs=protocol.linear_epochs,
        batch_size=protocol.batch_size,
        precision=precision,
        rng=np.random.default_rng(protocol.seed),
    )


def _method_table_job(
    method: MethodSpec,
    train: ArrayDataset,
    test: ArrayDataset,
    config: PretrainConfig,
    protocol: EvalProtocol,
    telemetry_dir: Optional[str] = None,
) -> Dict[GridKey, float]:
    """One sweep job: pretrain one method and fine-tune over the grid.

    Top-level (not a closure) so the process-pool sweep backend can
    pickle it; every argument is a plain dataclass or array dataset.
    """
    outcome = pretrain(method, train, config, telemetry_dir=telemetry_dir)
    return finetune_grid(outcome, train, test, protocol)


def sweep_method_table(
    methods: List[MethodSpec],
    data: SyntheticImages,
    config: PretrainConfig,
    protocol: EvalProtocol,
    jobs: int = 2,
    telemetry_root: Optional[Union[str, pathlib.Path]] = None,
    backend: str = "auto",
):
    """Run one method table as a crash-isolated parallel sweep.

    Returns the :class:`repro.parallel.SweepResult`: per-method grids are
    in ``.values()``, failures carry structured error reports instead of
    aborting the other rows, and each job logs telemetry under its own
    ``telemetry_root`` subdirectory.
    """
    from ..parallel import SweepExecutor, SweepJob

    executor = SweepExecutor(max_workers=jobs, backend=backend,
                             telemetry_root=telemetry_root)
    return executor.run([
        SweepJob(
            name=method.name,
            fn=_method_table_job,
            kwargs={
                "method": method,
                "train": data.train,
                "test": data.test,
                "config": config,
                "protocol": protocol,
            },
        )
        for method in methods
    ])


def run_method_table(
    methods: List[MethodSpec],
    data: SyntheticImages,
    config: PretrainConfig,
    protocol: EvalProtocol,
    jobs: int = 1,
    telemetry_root: Optional[Union[str, pathlib.Path]] = None,
) -> Dict[str, Dict[GridKey, float]]:
    """Pretrain every method and fine-tune over the grid (one table).

    With ``jobs > 1`` the rows run as a process-parallel sweep (order of
    the returned table still follows ``methods``); any failed row raises
    with the collected error reports.
    """
    if jobs > 1:
        sweep = sweep_method_table(
            methods, data, config, protocol, jobs=jobs,
            telemetry_root=telemetry_root,
        ).raise_failures()
        values = sweep.values()
        return {method.name: values[method.name] for method in methods}
    table: Dict[str, Dict[GridKey, float]] = {}
    for method in methods:
        outcome = pretrain(method, data.train, config)
        table[method.name] = finetune_grid(
            outcome, data.train, data.test, protocol
        )
    return table
