"""Embedding-serving benchmark: integer engine vs fake-quant float path.

Builds one calibrated int8 ResNet-18 encoder, deploys it twice through
:class:`repro.serving.EmbeddingService`:

- ``int`` — lowered by :func:`repro.quant.convert` (integer im2col GEMM
  with per-channel requantization);
- ``fakequant`` — the float64 deployment reference produced by
  :func:`repro.quant.freeze_reference` (same folded weights, same frozen
  grids, full fake-quant arithmetic).

Both engines are element-close by construction (``convert`` verifies
this), so the load test measures pure engine cost.  A third section
re-runs the integer engine with the :class:`repro.serving.EmbeddingCache`
in front to show the hit path.

Writes ``BENCH_serving.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_serving.py           # full
    PYTHONPATH=src python benchmarks/bench_serving.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import pathlib
import time
from typing import Dict, List

import numpy as np

from repro.models import resnet18
from repro.parallel.blas import blas_threads
from repro.quant import calibrate, convert, freeze_reference, prepare
from repro.serving import (
    EmbeddingCache,
    EmbeddingService,
    ModelRegistry,
    run_load,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serving.json"

BITS = 8
IMAGE_SIZE = 8
#: the repo's standard harness width (see benchmarks.common.pretrain_config).
WIDTH = 0.0625


def build_engines(rng: np.ndarray) -> Dict[str, object]:
    """One calibrated encoder, deployed as int and fake-quant engines."""
    model = resnet18(stem="cifar", width_multiplier=WIDTH,
                     rng=np.random.default_rng(0), norm="batch")
    prepare(model)
    batches = [
        rng.normal(size=(8, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)
        for _ in range(4)
    ]
    calibrate(model, batches, bits=BITS)
    fake = freeze_reference(copy.deepcopy(model))
    started = time.perf_counter()
    convert(model, input_shape=(2, 3, IMAGE_SIZE, IMAGE_SIZE))
    convert_s = time.perf_counter() - started
    return {"int": model, "fakequant": fake, "convert_s": convert_s}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer requests")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    requests = 96 if args.quick else 768
    concurrency = 4
    distinct_inputs = 8 if args.quick else 32

    rng = np.random.default_rng(42)
    engines = build_engines(rng)
    inputs = [
        rng.normal(size=(3, IMAGE_SIZE, IMAGE_SIZE))
        for _ in range(distinct_inputs)
    ]

    registry = ModelRegistry()
    registry.publish("encoder-int", engines["int"], tags=(f"int{BITS}",))
    registry.publish("encoder-fake", engines["fakequant"],
                     tags=(f"fakequant{BITS}", "float64"))

    reports = {}
    for label, name in (("int", "encoder-int"), ("fakequant", "encoder-fake")):
        service = EmbeddingService(registry, name, max_batch_size=16,
                                   max_wait_ms=1.0)
        with service:
            # warmup builds the integer weight operands / fake-quant grids
            service.embed_many(inputs[:4])
            reports[label] = run_load(
                service, inputs, requests=requests,
                concurrency=concurrency, label=label,
            )
        print(f"{label:9s} {reports[label].to_dict()}")

    # cached integer path: every input repeats, so steady state is hits
    cache = EmbeddingCache(capacity=4 * len(inputs))
    cached_service = EmbeddingService(registry, "encoder-int",
                                      max_batch_size=16, max_wait_ms=1.0,
                                      cache=cache)
    with cached_service:
        cached_service.embed_many(inputs)  # populate
        cached_report = run_load(
            cached_service, inputs, requests=requests,
            concurrency=concurrency, label="int+cache",
        )
    print(f"int+cache {cached_report.to_dict()}")

    payload = {
        "quick": bool(args.quick),
        "model": "resnet18",
        "bits": BITS,
        "image_size": IMAGE_SIZE,
        "width_multiplier": WIDTH,
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "convert_s": round(engines["convert_s"], 4),
        "requests": requests,
        "concurrency": concurrency,
        "engines": {k: r.to_dict() for k, r in reports.items()},
        "cached": cached_report.to_dict(),
        "cache": {"hits": cache.hits, "misses": cache.misses,
                  "hit_rate": round(cache.hit_rate, 4)},
        "speedup": {
            "qps_int_over_fakequant": round(
                reports["int"].qps / reports["fakequant"].qps, 3),
            "p50_fakequant_over_int": round(
                reports["fakequant"].p50_ms / reports["int"].p50_ms, 3),
        },
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if reports["int"].qps <= reports["fakequant"].qps:
        print("WARNING: integer engine not faster than fake-quant path")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
