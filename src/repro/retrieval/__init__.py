"""Quantized-embedding retrieval: binary/PQ codes, one index, training, serving.

The production workload for the paper's contrastive-quant embeddings:
million-item similarity search over compressed codes.  Two compression
families, one index, one deterministic ranking contract:

- **Binary** — per-coordinate thresholds → packed ``uint64`` words →
  popcount Hamming distances (:class:`BinaryQuantizer`; PAPERS.md
  covariance-structure analysis).
- **Learned codebooks** — EMA :class:`VectorQuantizer` /
  :class:`ProductQuantizer` with dead-code restart, trained
  contrastively with a :class:`CodeMemory` queue (:class:`VQTrainer`,
  MeCoQ) and scored via ADC lookup tables.

Both are served by :class:`IVFIndex`: coarse cells from a
:class:`VectorQuantizer`, ``nprobe``-bounded probing, residual PQ or raw
binary cell codes, one tiled scan, and an optional exact rerank stage
over a retained :class:`FloatStore` (``rerank_exact``, enabled by
``store_embeddings``).  :meth:`IVFIndex.flat` is the exhaustive index:
one cell centred on the origin, scanned by the same code.

Every index ranks by ascending ``(distance, id)`` and the float oracle
:func:`exact_search` by descending ``(similarity, ascending id)``, so
:func:`recall_at_k` / :func:`mean_average_precision` comparisons are
reproducible bit for bit.  :class:`RetrievalService` runs the whole
embed → quantize → search path on :mod:`repro.serving`'s registry and
micro-batching, refusing cross-model-version queries with
:class:`StaleIndexError`.
"""

from .binary import (
    BinaryQuantizer,
    hamming_dtype,
    pack_bits,
    packed_hamming,
    packed_words,
    unpack_bits,
)
from .ivf import IVFIndex
from .metrics import exact_search, mean_average_precision, recall_at_k
from .ranking import merge_topk, rowwise_topk, topk_largest, topk_smallest
from .rerank import FloatStore, rerank_exact
from .service import RetrievalService, StaleIndexError
from .trainer import VQTrainer, l2_normalize
from .vq import CodeMemory, ProductQuantizer, VectorQuantizer

__all__ = [
    "BinaryQuantizer",
    "CodeMemory",
    "FloatStore",
    "IVFIndex",
    "ProductQuantizer",
    "RetrievalService",
    "StaleIndexError",
    "VQTrainer",
    "VectorQuantizer",
    "exact_search",
    "hamming_dtype",
    "l2_normalize",
    "mean_average_precision",
    "merge_topk",
    "pack_bits",
    "packed_hamming",
    "packed_words",
    "recall_at_k",
    "rerank_exact",
    "rowwise_topk",
    "topk_largest",
    "topk_smallest",
    "unpack_bits",
]
