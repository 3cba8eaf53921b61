"""Workloads ``train-paper`` and ``train-replay``: CQ-C pretraining.

Both build the Table 1 "CQ-C (8-16)" row the way
``repro.experiments.pretrain`` does and drive it through
``trainer.fit`` on one thread with no prefetch workers.

- ``train-paper`` keeps the paper's BatchNorm ResNet-18 and BatchNorm
  head.  BatchNorm turns off view fusion and plan replay, so every step
  runs the eager autograd tape, BatchNorm and the quantized-weight cache.
- ``train-replay`` swaps in GroupNorm/LayerNorm, so every step after
  warm-up replays a compiled plan (fused kernels, arena, planned
  backward) and the eager tape sits idle.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Optional

import numpy as np

from repro.analysis import shapecheck
from repro.contrastive import ContrastiveQuantTrainer, SimCLRModel
from repro.data import (DataLoader, SyntheticConfig, SyntheticImages,
                        TwoViewTransform, simclr_augmentations)
from repro.experiments import PretrainConfig
from repro.models import create_encoder, resnet18
from repro.nn.optim import Adam
from repro.telemetry import Callback

from .common import (Result, chunk_percentiles, chunk_rates, durations_ms,
                     peak_rss_mb, percentile, rows_ms, wrap_engine)
from .spans import Recorder, accounting, maybe_span, subtree

# A frozen copy of the Table 1 settings in benchmarks/common.py
# (imagenet_like(), imagenet_pretrain_config(), scaled_set("8-16")), so
# the workload cannot drift with the test helpers; only the seed comes
# from the command line.
DATA = dict(num_classes=12, image_size=12, train_per_class=40,
            test_per_class=16, gratings_per_class=4, blobs_per_class=3,
            nuisance=1.4, noise_std=0.08)
PRECISION_SET = "4-16"
#: one warm-up step per plan signature: a same-precision and a mixed pair.
WARMUP_PAIRS = ((4, 4), (4, 16))
SETUP_REPEATS = 5
#: timed steps re-run on the engine="eager" twin and compared bytewise.
TWIN_PREFIX = 4


def _config(seed: int) -> PretrainConfig:
    return PretrainConfig(encoder="resnet18", width_multiplier=0.0625,
                          epochs=24, batch_size=32, augmentation_strength=1.0,
                          seed=seed)


class Batches:
    """Timing iterable over a loader, spanning its epochs.

    Stops after ``steps`` batches or once ``deadline`` has passed; the
    first ``keep`` batches are retained for the eager-twin check.  With
    a recorder, each ``next()`` on the loader iterator is a
    ``data.fetch`` span.
    """

    def __init__(self, loader, *, steps: Optional[int] = None,
                 deadline: Optional[float] = None,
                 recorder: Optional[Recorder] = None, keep: int = 0) -> None:
        self.loader = loader
        self.steps = steps
        self.deadline = deadline
        self.recorder = recorder
        self.keep = keep
        self.kept: List[tuple] = []

    def _more(self, count: int) -> bool:
        if self.steps is not None and count >= self.steps:
            return False
        return self.deadline is None or time.perf_counter() < self.deadline

    def __iter__(self):
        count = 0
        batches = iter(self.loader)
        while self._more(count):
            try:
                with maybe_span(self.recorder, "data.fetch", op=count):
                    batch = next(batches)
            except StopIteration:
                batches = iter(self.loader)
                continue
            if count < self.keep:
                self.kept.append(batch)
            count += 1
            yield batch


class StepLog(Callback):
    """Loss and wall-clock time of every ``on_step`` event."""

    def __init__(self) -> None:
        self.losses: List[float] = []
        self.times: List[float] = []

    def on_step(self, trainer, payload) -> None:
        self.times.append(time.perf_counter())
        self.losses.append(float(payload["loss"]))


class _Pairs:
    """``precision_sampler`` serving fixed pairs (warm-up only)."""

    def __init__(self, pairs) -> None:
        self._pairs = list(pairs)

    def next_pair(self):
        return self._pairs.pop(0)


def _build(cfg: PretrainConfig, train, replay: bool, engine: str = None):
    """Model, trainer and loader as ``pretrain()`` assembles them."""
    rng = np.random.default_rng(cfg.seed)
    if replay:
        encoder = resnet18(stem=cfg.stem, width_multiplier=cfg.width_multiplier,
                           rng=np.random.default_rng(cfg.seed), norm="group")
        model = SimCLRModel(encoder, projection_dim=cfg.projection_dim,
                            rng=rng, head_norm="layer")
    else:
        encoder = create_encoder(cfg.encoder,
                                 width_multiplier=cfg.width_multiplier,
                                 stem=cfg.stem,
                                 rng=np.random.default_rng(cfg.seed))
        model = SimCLRModel(encoder, projection_dim=cfg.projection_dim,
                            rng=rng)
    shapecheck(model, (cfg.batch_size,) + tuple(train.images.shape[1:]),
               dtype=train.images.dtype)
    trainer = ContrastiveQuantTrainer(
        model, "C", PRECISION_SET, Adam(list(model.parameters()), lr=cfg.lr),
        rng=np.random.default_rng(cfg.seed + 7),
        temperature=cfg.temperature, fuse_views=cfg.fuse_views,
        engine=engine or cfg.engine,
    )
    loader = DataLoader(
        train, batch_size=cfg.batch_size, shuffle=True, drop_last=True,
        transform=TwoViewTransform(
            simclr_augmentations(cfg.augmentation_strength)),
        seed=cfg.seed + 13, num_workers=cfg.num_workers,
        prefetch_factor=cfg.prefetch_factor,
    )
    return trainer, loader


def _warm_up(trainer, loader) -> StepLog:
    """Trace each plan signature once (train-replay) before timing."""
    log = StepLog()
    trainer.precision_sampler = _Pairs(WARMUP_PAIRS)
    try:
        trainer.fit(Batches(loader, steps=len(WARMUP_PAIRS)), epochs=1,
                    callbacks=(log,))
    finally:
        trainer.precision_sampler = None
    return log


class Window:
    """One timed ``fit`` call and the counters around it."""

    def __init__(self, trainer, loader, seconds: float,
                 recorder: Optional[Recorder] = None) -> None:
        self.log = StepLog()
        engine0 = trainer.engine.stats()
        cache0 = (trainer.quant_cache.hits, trainer.quant_cache.misses)
        self.batches = Batches(loader, deadline=time.perf_counter() + seconds,
                               recorder=recorder, keep=TWIN_PREFIX)
        self.start = time.perf_counter()
        with maybe_span(recorder, "contrastive.fit") as root:
            trainer.fit(self.batches, epochs=1, callbacks=(self.log,))
        self.root = root.index if root is not None else None
        self.wall = time.perf_counter() - self.start
        self.steps = len(self.log.losses)
        self.images = self.steps * loader.batch_size
        self.engine = {key: value - engine0[key]
                       for key, value in trainer.engine.stats().items()}
        hits = trainer.quant_cache.hits - cache0[0]
        lookups = hits + trainer.quant_cache.misses - cache0[1]
        self.cache_hit_rate = hits / lookups if lookups else 0.0
        self.fusion_active = trainer.fusion_active

    @property
    def step_ms(self) -> List[float]:
        edges = [self.start] + self.log.times
        return [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]


def _traffic(res: Result, window: Window, replay: bool) -> None:
    steps, engine = window.steps, window.engine
    if replay:
        res.check("traffic: every timed step is a plan hit",
                  engine["plan_hits"] == steps and engine["fallbacks"] == 0
                  and engine["retraces"] == 0 and engine["plan_misses"] == 0,
                  f"steps={steps} engine={engine}")
    else:
        res.check("traffic: every timed step is an eager fallback",
                  engine["fallbacks"] == steps and engine["plan_hits"] == 0
                  and not window.fusion_active,
                  f"steps={steps} engine={engine} "
                  f"fusion_active={window.fusion_active}")


def _twin(res: Result, cfg, train, window: Window) -> None:
    """train-replay losses equal an engine="eager" twin's, byte for byte."""
    twin, loader = _build(cfg, train, replay=True, engine="eager")
    _warm_up(twin, loader)
    log = StepLog()
    twin.fit(window.batches.kept, epochs=1, callbacks=(log,))
    replayed = window.log.losses[:len(log.losses)]
    same = (len(log.losses) == TWIN_PREFIX
            and np.array(replayed, dtype=np.float64).tobytes()
            == np.array(log.losses, dtype=np.float64).tobytes())
    res.check("output: replayed losses == eager twin", same,
              f"replay={replayed} eager={log.losses}")


def _trace_layers(res: Result, recorder: Recorder, window: Window,
                  collect_s: float, overhead_pct: float) -> None:
    spans = recorder.spans
    inside = subtree(spans, window.root)
    steps = max(window.steps, 1)
    step_ms = durations_ms(spans, inside, "contrastive.train_step")
    execute = [i for i in inside if spans[i].name == "engine.execute"]
    rows = accounting(spans, window.root, residual="contrastive.loop")
    per_step = rows_ms(rows, steps)
    root_ms = spans[window.root].duration * 1e3
    traced = [s for s in spans if s.name == "engine.execute"
              and s.info and s.info["path"] == "trace"]
    res.per_layer.update({
        "data.fetch_ms.p50": percentile(
            durations_ms(spans, inside, "data.fetch"), 50),
        "contrastive.step_ms.p50": percentile(step_ms, 50),
        "contrastive.step_ms.p90": percentile(step_ms, 90),
        "contrastive.self_ms": per_step.get("contrastive.train_step", 0.0),
        "contrastive.loop_ms": per_step["contrastive.loop"],
        "engine.execute_ms.p50": percentile(
            [spans[i].duration * 1e3 for i in execute], 50),
        "engine.replay_share": (
            sum(spans[i].info["path"] == "replay" for i in execute)
            / len(execute) if execute else 0.0),
        "engine.trace_ms": sum(s.duration for s in traced) * 1e3,
        "nn.optim_step_ms.p50": percentile(
            durations_ms(spans, inside, "nn.optim_step"), 50),
        "quant.cache_hit_rate": window.cache_hit_rate,
        "telemetry.collect_ms": collect_s * 1e3,
        "residual.self_ms": per_step["contrastive.loop"],
        "trace.overhead_pct": overhead_pct,
    })
    res.record["accounting_ms_per_step"] = {
        "operation": "contrastive.fit / step", "total": root_ms / steps,
        "rows": per_step, "residual": "contrastive.loop",
    }
    res.check("trace: one train_step span per logged step",
              len(step_ms) == window.steps,
              f"spans={len(step_ms)} steps={window.steps}")
    nested = [i for i in inside if spans[i].name in
              ("engine.execute", "nn.optim_step")]
    outside = [spans[i].name for i in nested
               if spans[spans[i].parent].name != "contrastive.train_step"]
    res.check("trace: every forward/backward and optimizer step runs "
              "inside a train_step", bool(nested) and not outside,
              f"{len(nested)} spans, {len(outside)} outside")
    res.record["trace_samples"] = {
        "steps": window.steps, "engine.execute": len(execute),
        "engine.trace": len(traced)}


def run(seed: int, seconds: float, trace: bool, replay: bool) -> Result:
    res = Result()
    cfg = _config(seed)
    train = SyntheticImages(SyntheticConfig(**DATA, seed=seed)).train

    recorder = Recorder() if trace else None
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        started = time.perf_counter()
        trainer, loader = _build(cfg, train, replay)
        if recorder is not None:
            wrap_engine(recorder, trainer.engine)
            recorder.wrap(trainer, "train_step", "contrastive.train_step")
            recorder.wrap(trainer.optimizer, "step", "nn.optim_step")
        warm = _warm_up(trainer, loader)
        setups.append(time.perf_counter() - started)

    windows = []
    if trace:
        recorder.active = False
        windows.append(Window(trainer, loader, seconds / 2))
        recorder.active = True
        windows.append(Window(trainer, loader, seconds / 2, recorder))
        with recorder.span("telemetry.collect") as span:
            trainer.metrics.collect()
        collect_s = span.duration
    else:
        windows.append(Window(trainer, loader, seconds))

    losses = warm.losses + [x for w in windows for x in w.log.losses]
    res.attempted = sum(w.steps for w in windows)
    res.failed = sum(not math.isfinite(x) for x in losses)
    res.check("output: all losses finite", res.failed == 0,
              f"{res.failed} non-finite of {len(losses)}")
    for window in windows:
        _traffic(res, window, replay)
    if replay:
        _twin(res, cfg, train, windows[0])

    first = windows[0]
    step_ms = first.step_ms
    samples_per_s = first.images / first.wall
    res.end_to_end.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": samples_per_s,
        "latency_p50_ms": percentile(step_ms, 50),
    })
    res.record.update({
        "train.samples_per_s": {"value": samples_per_s, "unit": "images/s",
                                "n": first.steps},
        "step_ms": {"p50": percentile(step_ms, 50),
                    "p90": percentile(step_ms, 90), "n": len(step_ms)},
        "sub_windows": {
            "samples_per_s": chunk_rates(first.start, first.log.times,
                                         cfg.batch_size),
            "step_ms_p50": chunk_percentiles(step_ms, 50)},
        "setup_s_runs": setups,
        "timed_steps": first.steps,
        "engine_delta": first.engine,
        "fusion_active": first.fusion_active,
        "quant.cache_hit_rate": first.cache_hit_rate,
        "model": "resnet18 w=1/16 " + ("GroupNorm + LayerNorm head"
                                       if replay else "BatchNorm"),
        "batch_size": cfg.batch_size, "precision_set": PRECISION_SET,
    })
    if trace:
        untraced, traced = windows
        overhead = ((traced.wall / max(traced.steps, 1))
                    / (untraced.wall / max(untraced.steps, 1)) - 1.0) * 100
        _trace_layers(res, recorder, traced, collect_s, overhead)
        res.recorder = recorder
    return res
