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
rows in id order, held in fixed blocks of ``_STORE_BLOCK_BYTES`` that
are allocated with ``np.empty`` when the last one fills and never
copied, so a growing store never holds its rows twice.  A block is
address space: pages are committed only as rows land, so at this size
every store in the repository's traffic (the largest, 1M x 64-d, is
244 MiB) is one block.  The store is thread-safe under the same
snapshot discipline as the code arrays: ``append`` publishes a new
``(blocks, size)`` tuple under the lock, and rows below the published
size are frozen, so a concurrent ``add()`` never tears a rerank.

:func:`rerank_exact` gathers the shortlists block by block into one
scratch reused across blocks.  A block holds at most ``query_block``
queries and ``_RERANK_BLOCK_BYTES`` of rows (one query at ``R=4000``,
64-d), so its rows are summed while still in cache and peak memory never
grows with the query count.  Results depend neither on the blocking nor
on the shortlist's order: each row's distance is the same float32
arithmetic, and the top-k is cut by ``(distance, id)``.  A one-block
store fills the scratch with one ``np.take``; a store of several
blocks fills it one store block at a time.  At ``R=4000`` over 1M x
64-d rows (batches of 16 queries, one BLAS thread) that took 0.96 ms
per query in four blocks against 0.65 ms in one.
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

# Bytes of float32 rows in one FloatStore block (at least one row).
_STORE_BLOCK_BYTES = 1 << 28


def _check_ids(ids: np.ndarray, size: int) -> None:
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= size):
        raise ValueError(
            f"ids must be in [0, {size}), got range "
            f"[{ids.min()}, {ids.max()}]"
        )


def _take(blocks: Tuple[np.ndarray, ...], ids: np.ndarray,
          out: np.ndarray) -> np.ndarray:
    """Rows at ``ids`` into C-contiguous ``out`` of shape
    ``ids.shape + (dim,)``, one block at a time.

    ``mode="clip"`` skips take's bounds check and its buffered copy of
    ``out``; the caller has range-checked every id.
    """
    if len(blocks) == 1:
        return np.take(blocks[0], ids, axis=0, out=out, mode="clip")
    if ids.size:
        which, offset = np.divmod(ids.reshape(-1), blocks[0].shape[0])
        rows = out.reshape(-1, out.shape[-1])  # a view: out is contiguous
        for block in range(which.min(), which.max() + 1):
            at = np.flatnonzero(which == block)
            rows[at] = np.take(blocks[block], offset[at], axis=0,
                               mode="clip")
    return out


class FloatStore:
    """Append-only float32 row store keyed by assignment-order ids.

    Rows live in blocks of ``_STORE_BLOCK_BYTES`` (read at construction)
    that are never copied or moved: ``append`` fills the last block and
    allocates a new one with ``np.empty`` when it is full, so the store
    grows by the pages its new rows commit, never by a second copy.
    Row ``i`` is row ``i % block_rows`` of block ``i // block_rows``.
    :meth:`snapshot` returns the published ``(blocks, size)``.  A store
    of several blocks gathers more slowly than one block (see the module
    docstring for the measured cost).
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._dim = int(dim)
        self._block_rows = max(1, _STORE_BLOCK_BYTES // (4 * self._dim))
        self._lock = threading.Lock()
        # Replaced, never mutated, under the lock.
        self._state: Tuple[Tuple[np.ndarray, ...], int] = ((), 0)

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        with self._lock:
            return self._state[1]

    def append(self, embeddings: np.ndarray) -> np.ndarray:
        """Store rows; returns their assigned ids (append order).

        Float32 input is written straight into the blocks, uncopied.
        """
        embeddings = np.asarray(embeddings, dtype=np.float32)
        if embeddings.ndim != 2 or embeddings.shape[1] != self._dim:
            raise ValueError(
                f"embeddings must have shape (N, {self._dim}), got "
                f"{embeddings.shape}"
            )
        with self._lock:
            blocks, start = self._state
            stop = start + embeddings.shape[0]
            at = start
            while at < stop:
                block, offset = divmod(at, self._block_rows)
                if block == len(blocks):
                    # A new tuple: the published one is never mutated.
                    blocks += (np.empty((self._block_rows, self._dim),
                                        dtype=np.float32),)
                count = min(stop - at, self._block_rows - offset)
                blocks[block][offset:offset + count] = \
                    embeddings[at - start:at - start + count]
                at += count
            self._state = (blocks, stop)
            return np.arange(start, stop, dtype=np.int64)

    def snapshot(self) -> Tuple[Tuple[np.ndarray, ...], int]:
        """``(blocks, size)``: the row blocks in id order and the row
        count; rows below ``size`` are frozen forever."""
        with self._lock:
            return self._state

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Float32 rows at ``ids`` (any shape; appended leading axes kept)."""
        ids = np.asarray(ids, dtype=np.int64)
        blocks, size = self.snapshot()
        _check_ids(ids, size)
        out = np.empty(ids.shape + (self._dim,), dtype=np.float32)
        return _take(blocks, ids, out)


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
    blocks, size = store.snapshot()  # rows below size never change
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
        _take(blocks, block_ids, vectors)
        if metric == "l2":
            np.subtract(vectors, block_q[:, None, :], out=vectors)
            dists = np.einsum("qrd,qrd->qr", vectors, vectors)
        else:
            dists = -np.einsum("qrd,qd->qr", vectors, block_q)
        ids, top = rowwise_topk(block_ids, dists, k)
        out_ids[start:start + block] = ids
        out_dists[start:start + block] = top
    return out_ids, out_dists
