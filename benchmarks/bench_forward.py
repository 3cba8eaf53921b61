"""Forward-engine benchmark: fused multi-view batching + quant-weight cache.

Measures per-step wall time, encoder-forward counts, and quantized-weight
sweep counts for every :class:`~repro.contrastive.CQVariant`, with the
precision-scoped engine on (``fuse_views=True, weight_cache=True``) and
off (both False — the historical per-view path).  The encoder is a
GroupNorm ResNet-18 with a LayerNorm projection head, i.e. free of batch
statistics, so the fused path is numerically identical to the unfused one
and the comparison is pure engine overhead.

Writes ``BENCH_forward.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_forward.py           # full
    PYTHONPATH=src python benchmarks/bench_forward.py --quick   # CI smoke
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
from repro.quant import count_quantized_modules

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_forward.json"

PRECISION_SET = "2-8"
IMAGE_SIZE = 8
#: the repo's standard harness width (see benchmarks.common.pretrain_config).
WIDTH = 0.0625


def make_trainer(variant: CQVariant, engine: bool) -> ContrastiveQuantTrainer:
    """Fresh trainer; ``engine`` toggles fusion + weight cache together."""
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
        fuse_views=engine,
        weight_cache=engine,
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
                 views: Sequence[Tuple[np.ndarray, np.ndarray]]) -> float:
    start = time.perf_counter()
    for v1, v2 in views:
        trainer.train_step(v1, v2)
    return time.perf_counter() - start


def _stats(trainer: ContrastiveQuantTrainer, engine: bool,
           round_times: List[float], steps: int,
           timed_steps: int, baseline) -> Dict[str, object]:
    forwards0, hits0, misses0 = baseline
    num_quantized = count_quantized_modules(trainer._encoder())
    misses = trainer.quant_cache.misses - misses0
    return {
        "fuse_views": engine,
        "weight_cache": engine,
        "fusion_active": trainer.fusion_active,
        "steps": timed_steps,
        "repeats": len(round_times),
        "seconds_per_step": min(round_times) / steps,
        "encoder_forwards_per_step": (
            trainer.metrics.counter("encoder_forwards").value - forwards0
        ) / timed_steps,
        "quant_cache_hits_per_step": (
            trainer.quant_cache.hits - hits0
        ) / timed_steps,
        "quant_cache_misses_per_step": misses / timed_steps,
        # One "sweep" fake-quantizes every quantized module's weight once.
        "weight_quant_sweeps_per_step": misses / timed_steps / num_quantized,
    }


def bench_variant(variant: CQVariant, batch: int, steps: int,
                  warmup: int, repeats: int) -> Dict[str, object]:
    """Fused and unfused trainers timed in interleaved rounds.

    Alternating fused/unfused rounds makes both engines sample the same
    machine-noise environment (thermal drift, co-tenancy) instead of one
    running entirely before the other; best-of-``repeats`` then filters
    the residual jitter.
    """
    trainers = {
        engine: make_trainer(variant, engine) for engine in (True, False)
    }
    views = _make_views(batch, warmup + repeats * steps)
    for engine in (True, False):
        for v1, v2 in views[:warmup]:
            trainers[engine].train_step(v1, v2)

    baselines = {
        engine: (
            trainers[engine].metrics.counter("encoder_forwards").value,
            trainers[engine].quant_cache.hits,
            trainers[engine].quant_cache.misses,
        )
        for engine in (True, False)
    }
    round_times: Dict[bool, List[float]] = {True: [], False: []}
    for r in range(repeats):
        chunk = views[warmup + r * steps:warmup + (r + 1) * steps]
        for engine in (True, False):
            round_times[engine].append(_timed_round(trainers[engine], chunk))

    timed_steps = repeats * steps
    fused = _stats(trainers[True], True, round_times[True], steps,
                   timed_steps, baselines[True])
    unfused = _stats(trainers[False], False, round_times[False], steps,
                     timed_steps, baselines[False])
    # Each round times fused then unfused back-to-back, so the per-round
    # ratio cancels slow machine phases; the median ratio is the robust
    # speedup estimate.
    ratios = sorted(u / f for f, u in zip(round_times[True],
                                          round_times[False]))
    return {
        "fused": fused,
        "unfused": unfused,
        "speedup": ratios[len(ratios) // 2],
    }


def run(steps: int, warmup: int, batch: int,
        repeats: int = 1) -> Dict[str, object]:
    results: Dict[str, object] = {}
    for variant in CQVariant:
        entry = bench_variant(variant, batch=batch, steps=steps,
                              warmup=warmup, repeats=repeats)
        results[variant.name] = entry
        fused, unfused = entry["fused"], entry["unfused"]
        print(
            f"CQ-{variant.name:<6} fused {1e3 * fused['seconds_per_step']:7.1f} ms/step "
            f"({fused['encoder_forwards_per_step']:.0f} fwd, "
            f"{fused['weight_quant_sweeps_per_step']:.1f} sweeps)   "
            f"unfused {1e3 * unfused['seconds_per_step']:7.1f} ms/step "
            f"({unfused['encoder_forwards_per_step']:.0f} fwd, "
            f"{unfused['weight_quant_sweeps_per_step']:.1f} sweeps)   "
            f"speedup {entry['speedup']:.2f}x"
        )
    return {
        "benchmark": "bench_forward",
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
    warmup = 1
    repeats = 1 if args.quick else 5

    payload = run(steps=steps, warmup=warmup, batch=batch, repeats=repeats)
    payload["quick"] = args.quick
    args.output.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
