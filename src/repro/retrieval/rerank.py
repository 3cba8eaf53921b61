"""Exact reranking of quantized shortlists over an optional float store.

The operating point that makes coarse codes usable at scale (PAPERS.md's
binary-quantization analysis): the quantized scan is a *candidate
generator* — fetch the top ``R`` items by Hamming/ADC distance, then
re-score exactly against retained float32 rows and return the true
top-k.  Recall@k after reranking is monotone non-decreasing in ``R``:
an oracle-top-k item in the shortlist can only be displaced by globally
closer items, of which there are fewer than ``k`` by definition.

:class:`FloatStore` is the higher-precision side store an index keeps
when constructed with ``store_embeddings=True`` — append-only float32
rows in id order, thread-safe under the same snapshot discipline as the
code arrays (rows below the published size are frozen, so concurrent
``add()`` never tears a rerank).

:func:`rerank_exact` gathers the shortlists block by block into one
scratch reused across blocks.  A block holds at most ``query_block``
queries and ``_RERANK_BLOCK_BYTES`` of rows (one query at ``R=4000``,
64-d), so its rows are summed while still in cache and peak memory never
grows with the query count.  Results depend neither on the blocking nor
on the shortlist's order: each row's distance is the same float32
arithmetic, and the top-k is cut by ``(distance, id)``.
"""

from __future__ import annotations

import threading
from typing import Tuple

import numpy as np

from .ranking import rowwise_topk

__all__ = ["FloatStore", "rerank_exact"]

_METRICS = ("l2", "ip")

# Cap on the float32 bytes one rerank block gathers (or one query's
# shortlist, if larger); the rerank's counterpart of ivf's
# _SCAN_PAIR_BUDGET, sized to stay in a core's L2 cache.
_RERANK_BLOCK_BYTES = 1 << 20


def _check_ids(ids: np.ndarray, size: int) -> None:
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= size):
        raise ValueError(
            f"ids must be in [0, {size}), got range "
            f"[{ids.min()}, {ids.max()}]"
        )


class FloatStore:
    """Append-only float32 row store keyed by assignment-order ids."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._dim = int(dim)
        self._lock = threading.Lock()
        self._rows = np.zeros((0, dim), dtype=np.float32)
        self._size = 0

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def append(self, embeddings: np.ndarray) -> np.ndarray:
        """Store rows; returns their assigned ids (append order)."""
        embeddings = np.asarray(embeddings, dtype=np.float32)
        if embeddings.ndim != 2 or embeddings.shape[1] != self._dim:
            raise ValueError(
                f"embeddings must have shape (N, {self._dim}), got "
                f"{embeddings.shape}"
            )
        with self._lock:
            start = self._size
            needed = start + embeddings.shape[0]
            if needed > self._rows.shape[0]:
                capacity = max(1024, self._rows.shape[0] * 2, needed)
                grown = np.zeros((capacity, self._dim), dtype=np.float32)
                grown[:start] = self._rows[:start]
                self._rows = grown
            self._rows[start:needed] = embeddings
            self._size = needed
            return np.arange(start, needed, dtype=np.int64)

    def snapshot(self) -> Tuple[np.ndarray, int]:
        """``(rows, size)`` — rows below ``size`` are frozen forever."""
        with self._lock:
            return self._rows, self._size

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Float32 rows at ``ids`` (any shape; appended leading axes kept)."""
        ids = np.asarray(ids, dtype=np.int64)
        rows, size = self.snapshot()
        _check_ids(ids, size)
        return rows[ids]


def rerank_exact(store: FloatStore, queries: np.ndarray,
                 shortlist_ids: np.ndarray, k: int, *,
                 metric: str = "l2",
                 query_block: int = 32) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-k over a quantized shortlist, ascending ``(distance, id)``.

    ``queries`` are ``(Q, dim)`` floats, ``shortlist_ids`` the scan's
    ``(Q, R)`` candidates.  Distances are the true metric on the stored
    float32 rows — squared L2 for ``"l2"``, negated inner product for
    ``"ip"`` — so reranked results are directly comparable to the float
    oracle (identical on unit-norm data when ``R`` covers the corpus).
    """
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
    queries = np.asarray(queries, dtype=np.float32)
    shortlist_ids = np.asarray(shortlist_ids, dtype=np.int64)
    if queries.ndim != 2 or queries.shape[1] != store.dim:
        raise ValueError(
            f"queries must have shape (Q, {store.dim}), got {queries.shape}"
        )
    if shortlist_ids.ndim != 2 or shortlist_ids.shape[0] != queries.shape[0]:
        raise ValueError(
            f"shortlist must have shape ({queries.shape[0]}, R), got "
            f"{shortlist_ids.shape}"
        )
    if query_block < 1:
        raise ValueError(f"query_block must be >= 1, got {query_block}")
    rows, size = store.snapshot()  # rows below size never change
    _check_ids(shortlist_ids, size)
    count, width = shortlist_ids.shape
    out_ids = np.empty((count, min(k, width)), dtype=np.int64)
    out_dists = np.empty(out_ids.shape, dtype=np.float32)
    query_bytes = max(1, width * store.dim * 4)
    block = max(1, min(query_block, _RERANK_BLOCK_BYTES // query_bytes))
    scratch = np.empty((min(block, count), width, store.dim),
                       dtype=np.float32)
    for start in range(0, count, block):
        block_ids = shortlist_ids[start:start + block]
        block_q = queries[start:start + block]
        vectors = scratch[:block_ids.shape[0]]
        # mode="clip" skips take's buffered copy of out; every id was
        # range-checked above.
        np.take(rows, block_ids, axis=0, out=vectors, mode="clip")
        if metric == "l2":
            np.subtract(vectors, block_q[:, None, :], out=vectors)
            dists = np.einsum("qrd,qrd->qr", vectors, vectors)
        else:
            dists = -np.einsum("qrd,qd->qr", vectors, block_q)
        ids, top = rowwise_topk(block_ids, dists, k)
        out_ids[start:start + block] = ids
        out_dists[start:start + block] = top
    return out_ids, out_dists
