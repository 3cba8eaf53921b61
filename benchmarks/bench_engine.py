"""Tracing-engine benchmark: plan replay vs the fused eager step path.

Times :class:`~repro.contrastive.ContrastiveQuantTrainer` steps with the
tracing executor on (``engine="trace"`` — record one eager step, compile
it into a :class:`~repro.engine.Plan`, replay it)
against the fused eager engine (``engine="eager"`` — the previous
default: view fusion + quant-weight cache, every step through Python
dispatch).  Both trainers share seeds, so they sample identical
precision pairs and their per-step losses must be byte-identical — the
benchmark asserts this, making it a correctness check as well as a
timing.

The encoder is a GroupNorm ResNet-18 with a LayerNorm head (no batch
statistics), i.e. fully traceable: replay covers every step after the
one-time trace per plan signature.

Writes ``BENCH_engine.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_engine.py           # full
    PYTHONPATH=src python benchmarks/bench_engine.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contrastive import ContrastiveQuantTrainer, CQVariant, SimCLRModel
from repro.models import resnet18
from repro.nn.optim import Adam
from repro.parallel.blas import blas_threads

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_engine.json"

PRECISION_SET = "2-8"
IMAGE_SIZE = 8
#: the repo's standard harness width (see benchmarks.common.pretrain_config).
WIDTH = 0.0625

ENGINES = ("trace", "eager")


def make_trainer(variant: CQVariant, engine: str) -> ContrastiveQuantTrainer:
    """Fresh fused trainer; only the execution engine differs."""
    rng = np.random.default_rng(0)
    encoder = resnet18(stem="cifar", width_multiplier=WIDTH,
                       rng=np.random.default_rng(0), norm="group")
    model = SimCLRModel(encoder, projection_dim=16,
                        rng=np.random.default_rng(1), head_norm="layer")
    optimizer = Adam(model.parameters(), lr=1e-3)
    return ContrastiveQuantTrainer(
        model,
        variant,
        PRECISION_SET,
        optimizer,
        rng=rng,
        fuse_views=True,
        weight_cache=True,
        engine=engine,
    )


def _make_views(batch: int, count: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(42)
    shape = (batch, 3, IMAGE_SIZE, IMAGE_SIZE)
    return [
        (rng.normal(size=shape).astype(np.float32),
         rng.normal(size=shape).astype(np.float32))
        for _ in range(count)
    ]


def _timed_round(trainer: ContrastiveQuantTrainer,
                 views: Sequence[Tuple[np.ndarray, np.ndarray]],
                 losses: List[float]) -> float:
    start = time.perf_counter()
    for v1, v2 in views:
        losses.append(trainer.train_step(v1, v2))
    return time.perf_counter() - start


def _stats(trainer: ContrastiveQuantTrainer, engine: str,
           round_times: List[float], steps: int,
           timed_steps: int) -> Dict[str, object]:
    stats = dict(trainer.engine.stats())
    return {
        "engine": engine,
        "steps": timed_steps,
        "repeats": len(round_times),
        "seconds_per_step": min(round_times) / steps,
        # Cumulative engine counters over warmup + timed steps: replay
        # coverage is plan_hits / (hits + misses + retraces + fallbacks).
        "plan_hits": stats["plan_hits"],
        "plan_misses": stats["plan_misses"],
        "retraces": stats["retraces"],
        "fallbacks": stats["fallbacks"],
    }


def bench_variant(variant: CQVariant, batch: int, steps: int,
                  warmup: int, repeats: int) -> Dict[str, object]:
    """Traced and eager trainers timed in interleaved rounds.

    Alternating rounds make both engines sample the same machine-noise
    environment; the per-round eager/traced ratio cancels slow phases and
    the median ratio over rounds is the robust speedup estimate.
    """
    trainers = {engine: make_trainer(variant, engine) for engine in ENGINES}
    views = _make_views(batch, warmup + repeats * steps)
    losses: Dict[str, List[float]] = {engine: [] for engine in ENGINES}
    for engine in ENGINES:
        for v1, v2 in views[:warmup]:
            losses[engine].append(trainers[engine].train_step(v1, v2))

    round_times: Dict[str, List[float]] = {engine: [] for engine in ENGINES}
    for r in range(repeats):
        chunk = views[warmup + r * steps:warmup + (r + 1) * steps]
        for engine in ENGINES:
            round_times[engine].append(
                _timed_round(trainers[engine], chunk, losses[engine])
            )

    if losses["trace"] != losses["eager"]:
        bad = next(i for i, (a, b) in
                   enumerate(zip(losses["trace"], losses["eager"])) if a != b)
        raise AssertionError(
            f"CQ-{variant.name}: traced loss diverged from eager at step "
            f"{bad}: {losses['trace'][bad]!r} != {losses['eager'][bad]!r}"
        )

    timed_steps = repeats * steps
    ratios = sorted(e / t for t, e in zip(round_times["trace"],
                                          round_times["eager"]))
    return {
        "traced": _stats(trainers["trace"], "trace", round_times["trace"],
                         steps, timed_steps),
        "eager": _stats(trainers["eager"], "eager", round_times["eager"],
                        steps, timed_steps),
        "speedup": ratios[len(ratios) // 2],
        "losses_bitwise_equal": True,
    }


def run(steps: int, warmup: int, batch: int,
        repeats: int = 1) -> Dict[str, object]:
    results: Dict[str, object] = {}
    for variant in CQVariant:
        entry = bench_variant(variant, batch=batch, steps=steps,
                              warmup=warmup, repeats=repeats)
        results[variant.name] = entry
        traced, eager = entry["traced"], entry["eager"]
        print(
            f"CQ-{variant.name:<6} traced {1e3 * traced['seconds_per_step']:7.1f} ms/step "
            f"({traced['plan_hits']} hits, {traced['retraces']} retraces, "
            f"{traced['fallbacks']} fallbacks)   "
            f"eager {1e3 * eager['seconds_per_step']:7.1f} ms/step   "
            f"speedup {entry['speedup']:.2f}x"
        )
    return {
        "benchmark": "bench_engine",
        "config": {
            "encoder": "resnet18(norm='group')",
            "head_norm": "layer",
            "width_multiplier": WIDTH,
            "image_size": IMAGE_SIZE,
            "batch_size": batch,
            "precision_set": PRECISION_SET,
            "steps": steps,
            "warmup": warmup,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
            "blas_threads": blas_threads(),
        },
        "variants": results,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny smoke configuration for CI")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed steps per round")
    parser.add_argument("--batch", type=int, default=None,
                        help="per-view batch size")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    steps = args.steps or (2 if args.quick else 6)
    batch = args.batch or (4 if args.quick else 8)
    warmup = 2 if args.quick else 8
    repeats = 1 if args.quick else 5

    payload = run(steps=steps, warmup=warmup, batch=batch, repeats=repeats)
    payload["quick"] = args.quick
    args.output.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
