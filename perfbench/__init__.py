"""The repository benchmark (see ``run.py`` and ``BENCHMARK.json``).

Four workloads, each stressing layers the others leave idle:

- ``train-paper``  — CQ-C pretraining on the paper's BatchNorm path:
  eager autograd tape, BatchNorm, quantized-weight cache.
- ``train-replay`` — the same method and data with GroupNorm/LayerNorm:
  compiled training-plan replay.
- ``serve-embed``  — int8 embedding service under open-loop load:
  batcher and integer GEMM (served eagerly; see ``serve.py``).
- ``search-ivf``   — IVF binary search with float rerank over 1M items
  at recall@10 >= 0.9: scan, rerank, index writes.

The benchmark calls the program only through public calls; per-layer
numbers come from spans recorded around those calls (``spans.py``).
"""
