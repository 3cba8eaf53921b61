"""The retrieval index: coarse cells, ``nprobe`` search, tiled scan, rerank.

An :class:`IVFIndex` splits the corpus into ``num_cells`` Voronoi cells
of a coarse :class:`~repro.retrieval.VectorQuantizer` (trained with the
same EMA k-means / ``derive_rng`` machinery as every codebook in this
package) and stores each cell's items in contiguous per-list arrays.  A
query ranks cells by coarse distance and scans only the ``nprobe``
nearest — the classic inverted-file trade: recall degrades gracefully
with ``nprobe`` while scanned-item count (and therefore latency) drops
by roughly ``nprobe / num_cells``.  :meth:`IVFIndex.flat` builds the
exhaustive index: one cell centred on the origin, scanned by the same
code.

Two encoders are supported:

- :class:`~repro.retrieval.ProductQuantizer` — **residual** PQ codes
  (the encoder quantizes ``x - centroid[cell]``, which has far lower
  variance than ``x`` itself).  ADC distances decompose as::

      d(q, x) = ||q - c||^2                       (coarse term)
              + sum_m  -2 <q_m, e_m>              (per-query tables)
              + sum_m  2 <c_m, e_m> + ||e_m||^2   (per-item bias)

  The bias is precomputed float32 at ``add()`` time; a distance is the
  float32 base (bias + coarse term) plus the M gathered table entries,
  added in subspace order.  The per-query tables do not depend on the
  cell.  With the origin cell the coarse term is ``||q||^2`` (``0`` for
  ``"ip"``) and the residual is the item itself.
- :class:`~repro.retrieval.BinaryQuantizer` — raw packed sign codes and
  integer Hamming scans.  Because the distances ignore the partition,
  ``nprobe=num_cells`` returns results **id-for-id identical** to the
  flat index over the same data.

The scan is cell-major: for each probed cell, the queries of the block
that probe it are scored against the cell's rows in dense tiles of at
most ``_SCAN_PAIR_BUDGET`` (query, row) pairs, into scratch reused
across tiles, so memory stays bounded at any corpus size or ``nprobe``.
Every result is ranked by the package-wide ascending ``(distance, id)``
contract through :mod:`~repro.retrieval.ranking`.  With
``store_embeddings=True`` the index retains float32 rows and
``search(..., rerank=R)`` re-scores the top-``R`` shortlist exactly.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..nn.rng import derive_rng
from .binary import BinaryQuantizer, hamming_dtype, hamming_kernel
from .ranking import smallest_set, sort_ascending
from .rerank import FloatStore, rerank_exact
from .vq import ProductQuantizer, VectorQuantizer

__all__ = ["IVFIndex"]

_METRICS = ("l2", "ip")

# Cap on (query, row) pairs scored per tile: bounds every scan scratch
# buffer whatever the corpus size, nprobe or query count.
_SCAN_PAIR_BUDGET = 1 << 18

Encoder = Union[ProductQuantizer, BinaryQuantizer]
TileKernel = Callable[[np.ndarray, np.ndarray, np.ndarray,
                       Optional[np.ndarray], slice], np.ndarray]


def _check_encoder(encoder: Encoder) -> Encoder:
    if not isinstance(encoder, (ProductQuantizer, BinaryQuantizer)):
        raise TypeError(
            f"encoder must be a ProductQuantizer or BinaryQuantizer, "
            f"got {type(encoder).__name__}"
        )
    return encoder


def _assign_cells(centroids: np.ndarray, x: np.ndarray,
                  row_block: int = 8192) -> np.ndarray:
    """Nearest-centroid ids, float32 blocked (build-speed hot path).

    Squared-L2 argmin up to the query norm; ties pick the lowest cell id
    (``np.argmin`` returns the first minimum).
    """
    cb = centroids.astype(np.float32)
    norms = np.sum(cb.astype(np.float64) ** 2, axis=1).astype(np.float32)
    out = np.empty(x.shape[0], dtype=np.int64)
    scores = np.empty((min(row_block, x.shape[0]), cb.shape[0]),
                      dtype=np.float32)
    x32 = x.astype(np.float32, copy=False)
    for start in range(0, x.shape[0], row_block):
        block = x32[start:start + row_block]
        view = scores[:block.shape[0]]
        np.matmul(block, cb.T, out=view)
        view *= -2.0
        view += norms
        out[start:start + row_block] = np.argmin(view, axis=1)
    return out


def _adc_kernel(pairs: int, rows: int) -> TileKernel:
    """ADC tile kernel over scratch reused across tiles.

    ``kernel(tables, coarse, codes, bias, span)`` scores ``(nq, M, K)``
    query tables against cell rows ``span``: the float32 base
    ``bias + coarse`` plus one ``np.take(..., out=)`` gather per
    subspace, added in subspace order.  Returns an ``(nq, rows)`` view
    into the scratch, valid until the next call.
    """
    acc_buf = np.empty(pairs, dtype=np.float32)
    gather_buf = np.empty(pairs, dtype=np.float32)
    idx_buf = np.empty(rows, dtype=np.intp)

    def kernel(tables, coarse, codes, bias, span):
        codes = codes[span]
        nq, n = tables.shape[0], codes.shape[0]
        acc = acc_buf[:nq * n].reshape(nq, n)
        gather = gather_buf[:nq * n].reshape(nq, n)
        idx = idx_buf[:n]
        np.add(coarse[:, None], bias[span][None, :], out=acc)
        for m in range(tables.shape[1]):
            # mode="clip" skips numpy's bounds-check copy; code ids come
            # from the encoder, so they are always < num_codes.
            idx[:] = codes[:, m]
            np.take(tables[:, m], idx, axis=1, out=gather, mode="clip")
            np.add(acc, gather, out=acc)
        return acc

    return kernel


def _hamming_tiles(words: int, pairs: int) -> TileKernel:
    """Hamming tile kernel with the ADC kernel's call signature."""
    hamming = hamming_kernel(words, pairs)

    def kernel(query_codes, coarse, codes, bias, span):
        return hamming(query_codes, codes[span])

    return kernel


class _CellList:
    """One inverted list: contiguous codes/ids (+ ADC bias) arrays.

    Append-only with amortized doubling; rows below the published
    ``size`` are frozen, so a search that snapshot-reads ``(arrays,
    size)`` under the index lock can scan without holding it.
    """

    __slots__ = ("codes", "ids", "bias", "size")

    def __init__(self, code_width: int, code_dtype: np.dtype,
                 with_bias: bool) -> None:
        self.codes = np.zeros((0, code_width), dtype=code_dtype)
        self.ids = np.zeros(0, dtype=np.int64)
        self.bias = np.zeros(0, dtype=np.float32) if with_bias else None
        self.size = 0

    def append(self, codes: np.ndarray, ids: np.ndarray,
               bias: Optional[np.ndarray]) -> None:
        needed = self.size + codes.shape[0]
        if needed > self.codes.shape[0]:
            capacity = max(64, self.codes.shape[0] * 2, needed)
            grown = np.zeros((capacity,) + self.codes.shape[1:],
                             dtype=self.codes.dtype)
            grown[:self.size] = self.codes[:self.size]
            self.codes = grown
            grown_ids = np.zeros(capacity, dtype=np.int64)
            grown_ids[:self.size] = self.ids[:self.size]
            self.ids = grown_ids
            if self.bias is not None:
                grown_bias = np.zeros(capacity, dtype=np.float32)
                grown_bias[:self.size] = self.bias[:self.size]
                self.bias = grown_bias
        self.codes[self.size:needed] = codes
        self.ids[self.size:needed] = ids
        if self.bias is not None:
            self.bias[self.size:needed] = bias
        self.size = needed


class _Shortlist:
    """One query's running candidates while the scan visits its tiles.

    Holds every ``(distance, id)`` pair that can still make the query's
    top ``needed``.  Once ``needed`` pairs are held, a new pair farther
    than the worst of them cannot, so it is dropped on arrival; ties
    stay, because a later tile may carry a smaller id.  The held set is
    cut back to the top ``needed`` by :func:`smallest_set` whenever it
    reaches twice that, so memory is ``O(needed + tile)``.  Cuts keep
    no order; :meth:`result` sorts the final set only when asked, since
    a rerank that follows re-ranks it by ``(distance, id)`` anyway.
    """

    __slots__ = ("needed", "dists", "ids", "held", "bound")

    def __init__(self, needed: int) -> None:
        self.needed = needed
        self.dists: List[np.ndarray] = []
        self.ids: List[np.ndarray] = []
        self.held = 0
        self.bound = None

    def offer(self, dists: np.ndarray, ids: np.ndarray) -> None:
        """Take one tile row; ``dists`` is scratch the next tile reuses."""
        if self.bound is not None:
            keep = np.flatnonzero(dists <= self.bound)
            dists, ids = dists[keep], ids[keep]
        elif self.held + dists.size < 2 * self.needed:
            dists = dists.copy()  # kept past this call
        self.dists.append(dists)
        self.ids.append(ids)
        self.held += dists.size
        if self.held >= 2 * self.needed:
            self._select()

    def _select(self) -> None:
        if len(self.dists) == 1:
            dists, ids = self.dists[0], self.ids[0]
        else:
            dists = np.concatenate(self.dists)
            ids = np.concatenate(self.ids)
        keep = smallest_set(dists, self.needed, ids)
        self.dists, self.ids = [dists[keep]], [ids[keep]]
        self.held = keep.size
        self.bound = self.dists[0].max()

    def result(self, ordered: bool) -> Tuple[np.ndarray, np.ndarray]:
        """The top ``needed`` as ``(ids, distances)``: ascending by
        ``(distance, id)`` if ``ordered``, else in no particular order."""
        if len(self.dists) > 1 or self.bound is None:
            self._select()
        ids, dists = self.ids[0], self.dists[0]
        if ordered:
            order = sort_ascending(dists, np.arange(ids.size), ids)
            ids, dists = ids[order], dists[order]
        return ids, dists


class IVFIndex:
    """Inverted-file index over a coarse quantizer with PQ/binary cells.

    Item ids are global assignment order (across cells).  ``add()`` is
    thread-safe; ``search`` snapshots each cell's ``(arrays, size)``
    under the lock, so concurrent adds never tear a query.

    Parameters
    ----------
    coarse:
        Trained :class:`VectorQuantizer` whose codes are the cells; its
        centroids are copied at construction.  ``None`` on an index
        built by :meth:`flat`.
    encoder:
        :class:`ProductQuantizer` (residual ADC cells) or
        :class:`BinaryQuantizer` (raw Hamming cells).
    metric:
        ``"l2"`` or ``"ip"`` for PQ cells; binary cells rank by Hamming
        distance and require ``"l2"`` (also used by the rerank stage).
    nprobe:
        Default number of cells scanned per query; override per call.
        Probing automatically widens past ``nprobe`` when the visited
        cells hold fewer candidates than requested, so result width is
        always ``min(k, len(index))``.
    """

    def __init__(self, coarse: VectorQuantizer, encoder: Encoder, *,
                 metric: str = "l2", nprobe: int = 8,
                 query_block: int = 32,
                 store_embeddings: bool = False) -> None:
        if not isinstance(coarse, VectorQuantizer):
            raise TypeError(
                f"coarse must be a VectorQuantizer, got "
                f"{type(coarse).__name__}"
            )
        self.coarse: Optional[VectorQuantizer] = coarse
        self._setup(np.array(coarse.codebook.data, dtype=np.float32),
                    _check_encoder(encoder), metric, nprobe, query_block,
                    store_embeddings)

    @classmethod
    def flat(cls, encoder: Encoder, *, metric: str = "l2",
             query_block: int = 32,
             store_embeddings: bool = False) -> "IVFIndex":
        """Exhaustive index: one cell whose centroid is the origin.

        Every query scans every item; results are exact for the codes
        (Hamming for binary, ADC for PQ) and match a multi-cell index
        probed at ``nprobe=num_cells`` over binary codes id for id.
        """
        encoder = _check_encoder(encoder)
        index = cls.__new__(cls)
        index.coarse = None
        index._setup(np.zeros((1, encoder.dim), dtype=np.float32), encoder,
                     metric, 1, query_block, store_embeddings)
        return index

    def _setup(self, centroids: np.ndarray, encoder: Encoder, metric: str,
               nprobe: int, query_block: int,
               store_embeddings: bool) -> None:
        if encoder.dim != centroids.shape[1]:
            raise ValueError(
                f"encoder dim {encoder.dim} != coarse dim "
                f"{centroids.shape[1]}"
            )
        if metric not in _METRICS:
            raise ValueError(
                f"metric must be one of {_METRICS}, got {metric!r}"
            )
        self._binary = isinstance(encoder, BinaryQuantizer)
        if self._binary and metric != "l2":
            raise ValueError(
                "binary cells rank by Hamming distance; only metric='l2' "
                "is supported (it also drives the rerank stage)"
            )
        num_cells = centroids.shape[0]
        if not 1 <= nprobe <= num_cells:
            raise ValueError(
                f"nprobe must be in [1, {num_cells}], got {nprobe}"
            )
        if query_block < 1:
            raise ValueError(f"query_block must be >= 1, got {query_block}")
        self._centroids = centroids
        self.encoder = encoder
        self.metric = metric
        self.nprobe = int(nprobe)
        self.query_block = int(query_block)
        if self._binary:
            width, dtype = encoder.words, np.dtype(np.uint64)
        else:
            width, dtype = encoder.num_subspaces, encoder.code_dtype
        self._lock = threading.Lock()
        self._cells: List[_CellList] = [
            _CellList(width, dtype, with_bias=not self._binary)
            for _ in range(num_cells)
        ]
        self._size = 0
        self._store = FloatStore(encoder.dim) if store_embeddings else None

    # -- construction -------------------------------------------------------

    @classmethod
    def fit(cls, embeddings: np.ndarray, *, num_cells: int,
            num_subspaces: int, num_codes: int = 256,
            metric: str = "l2", nprobe: int = 8, epochs: int = 5,
            batch_size: int = 1024, seed: int = 0, tol: float = 0.0,
            store_embeddings: bool = False) -> "IVFIndex":
        """Train coarse cells + residual PQ on a sample; returns an
        *empty* index (``add()`` the corpus afterwards).

        Deterministic: the coarse codebook derives from spawn key
        ``(seed, 10)`` and fits with ``seed``; the residual PQ derives
        from ``(seed, 11)`` and fits with ``seed + 1``.
        """
        embeddings = np.asarray(embeddings, dtype=np.float64)
        coarse = cls._fit_coarse(embeddings, num_cells, epochs, batch_size,
                                 seed, tol)
        cells = _assign_cells(coarse.codebook.data, embeddings)
        residuals = embeddings - coarse.codebook.data[cells].astype(
            np.float64)
        encoder = ProductQuantizer(embeddings.shape[1], num_subspaces,
                                   num_codes, rng=derive_rng(seed, 11))
        encoder.fit(residuals, epochs=epochs, batch_size=batch_size,
                    seed=seed + 1, tol=tol)
        return cls(coarse, encoder, metric=metric, nprobe=nprobe,
                   store_embeddings=store_embeddings)

    @classmethod
    def fit_binary(cls, embeddings: np.ndarray, *, num_cells: int,
                   nprobe: int = 8, epochs: int = 5,
                   batch_size: int = 1024, seed: int = 0, tol: float = 0.0,
                   store_embeddings: bool = False) -> "IVFIndex":
        """Train coarse cells + median-threshold binary codes; returns an
        *empty* index (``add()`` the corpus afterwards)."""
        embeddings = np.asarray(embeddings, dtype=np.float64)
        coarse = cls._fit_coarse(embeddings, num_cells, epochs, batch_size,
                                 seed, tol)
        encoder = BinaryQuantizer.fit_median(embeddings)
        return cls(coarse, encoder, nprobe=nprobe,
                   store_embeddings=store_embeddings)

    @staticmethod
    def _fit_coarse(embeddings: np.ndarray, num_cells: int, epochs: int,
                    batch_size: int, seed: int,
                    tol: float) -> VectorQuantizer:
        if embeddings.ndim != 2:
            raise ValueError(
                f"expected (N, dim) embeddings, got shape {embeddings.shape}"
            )
        coarse = VectorQuantizer(num_cells, embeddings.shape[1],
                                 rng=derive_rng(seed, 10))
        # Seed centroids from data rows: random off-manifold init makes
        # a few lucky centroids capture everything on clustered corpora,
        # and the EMA counts decay too slowly for dead-code restart to
        # rescue short fits.  Cell balance is what makes nprobe pay.
        n = embeddings.shape[0]
        picks = derive_rng(seed, 12).choice(n, size=num_cells,
                                            replace=n < num_cells)
        seeds = embeddings[picks]
        # Goes through the version-bumping Parameter.data setter, same
        # sanctioned path as the EMA update in vq.py.
        coarse.codebook.data = seeds.astype(np.float32)  # noqa: RPR002
        coarse.set_buffer("ema_sums", seeds.astype(np.float64))
        coarse.fit(embeddings, epochs=epochs, batch_size=batch_size,
                   seed=seed, tol=tol)
        return coarse

    # -- introspection ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.encoder.dim

    @property
    def num_cells(self) -> int:
        return self._centroids.shape[0]

    @property
    def store(self) -> Optional[FloatStore]:
        """The float32 rerank store, or None when not retained."""
        return self._store

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def cell_sizes(self) -> np.ndarray:
        """Items per cell, ``(num_cells,)`` — balance diagnostics."""
        with self._lock:
            return np.array([c.size for c in self._cells], dtype=np.int64)

    # -- indexing -----------------------------------------------------------

    def add(self, embeddings: np.ndarray) -> np.ndarray:
        """Encode and route embeddings to their cells; returns global ids.

        Float32 input is used as it is: cell assignment and the float
        store read the caller's rows, and binary codes compare them
        against the float64 thresholds directly, so a binary ``add``
        copies no chunk.  Any other input is read as float64 and cast
        to float32 once for cell assignment and the store.  Either way,
        codes, cells and stored rows equal those of a float64 copy of
        the input.  PQ cells encode float64 residuals.
        """
        embeddings = np.asarray(embeddings)
        if embeddings.dtype != np.float32:
            embeddings = embeddings.astype(np.float64, copy=False)
        if embeddings.ndim != 2 or embeddings.shape[1] != self.dim:
            raise ValueError(
                f"embeddings must have shape (N, {self.dim}), got "
                f"{embeddings.shape}"
            )
        if embeddings.shape[0] == 0:
            raise ValueError("add() needs at least one embedding")
        rows = embeddings.astype(np.float32, copy=False)
        cells = _assign_cells(self._centroids, rows)
        if self._binary:
            codes = self.encoder.encode(embeddings)
            bias = None
        else:
            centroids = self._centroids[cells].astype(np.float64)
            codes = self.encoder.encode(embeddings - centroids)
            bias = self._residual_bias(codes, centroids)
        order = np.argsort(cells, kind="stable")
        boundaries = np.flatnonzero(np.diff(cells[order])) + 1
        groups = np.split(order, boundaries)
        with self._lock:
            start = self._size
            ids = np.arange(start, start + embeddings.shape[0],
                            dtype=np.int64)
            for group in groups:
                cell = int(cells[group[0]])
                self._cells[cell].append(
                    codes[group], ids[group],
                    bias[group] if bias is not None else None)
            self._size = start + embeddings.shape[0]
            if self._store is not None:
                # Under the index lock so code ids and float rows can
                # never interleave across concurrent add() calls.
                self._store.append(rows)
        return ids

    def _residual_bias(self, codes: np.ndarray,
                       centroids: np.ndarray) -> np.ndarray:
        """Per-item ADC bias (float32): ``2 <c, e> + ||e||^2`` for L2.

        The inner-product decomposition ``-<q, c + e>`` has no
        query-independent item term, so the bias is zero there.
        """
        if self.metric == "ip":
            return np.zeros(codes.shape[0], dtype=np.float32)
        recon = self.encoder.decode(codes).astype(np.float64)
        bias = (2.0 * np.einsum("nd,nd->n", centroids, recon)
                + np.einsum("nd,nd->n", recon, recon))
        return bias.astype(np.float32)

    # -- search -------------------------------------------------------------

    def search(self, queries: np.ndarray, k: int = 10, *,
               nprobe: Optional[int] = None,
               rerank: Optional[int] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k over the ``nprobe`` nearest cells, ascending
        ``(distance, id)``.

        Returns ``(ids, distances)``, both ``(Q, min(k, len(self)))``.
        PQ cells yield float32 ADC distances (``"ip"``: negated inner
        products); binary cells yield integer Hamming distances.
        ``rerank=R`` re-scores the top-``R`` shortlist exactly against
        the float store (requires ``store_embeddings=True``).
        """
        ids, dists, _ = self._search(queries, k, nprobe, rerank)
        return ids, dists

    def search_stats(self, queries: np.ndarray, k: int = 10, *,
                     nprobe: Optional[int] = None,
                     rerank: Optional[int] = None
                     ) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
        """Like :meth:`search`, plus probe/timing/shortlist stats."""
        return self._search(queries, k, nprobe, rerank)

    def _check_search_args(self, queries: np.ndarray, k: int,
                           nprobe: Optional[int],
                           rerank: Optional[int]
                           ) -> Tuple[np.ndarray, int, Optional[int]]:
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(
                f"queries must have shape (Q, {self.dim}), got "
                f"{queries.shape}"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        nprobe = self.nprobe if nprobe is None else int(nprobe)
        if not 1 <= nprobe <= self.num_cells:
            raise ValueError(
                f"nprobe must be in [1, {self.num_cells}], got {nprobe}"
            )
        if rerank is not None:
            rerank = int(rerank)
            if rerank < k:
                raise ValueError(
                    f"rerank shortlist must be >= k, got rerank={rerank} "
                    f"< k={k}"
                )
            if self._store is None:
                raise ValueError(
                    "rerank requires an index built with "
                    "store_embeddings=True"
                )
        return queries, nprobe, rerank

    def _coarse_distances(self, queries: np.ndarray) -> np.ndarray:
        """``(Q, num_cells)`` float32 coarse terms (squared L2 or -ip).

        Computed in float64 then cast, like the ADC tables, so probe
        order and the PQ coarse term never vary with blocking.
        """
        centroids = self._centroids.astype(np.float64)
        inner = queries @ centroids.T
        if self.metric == "l2":
            dists = (np.sum(queries ** 2, axis=1)[:, None]
                     - 2.0 * inner
                     + np.sum(centroids ** 2, axis=1)[None, :])
        else:
            dists = -inner
        return dists.astype(np.float32)

    def _query_operand(self, queries: np.ndarray) -> np.ndarray:
        """Per-query scan operand, indexed by query on axis 0: packed
        codes for binary cells, ``(Q, M, K)`` float32 residual tables
        ``-2 <q_m, e_mk>`` (``"ip"``: ``-<q_m, e_mk>``) for PQ cells.

        The tables are computed in float64 and cast, so a query's row
        never depends on the other queries in its block.
        """
        enc = self.encoder
        if self._binary:
            return enc.encode(queries)
        tables = np.empty((queries.shape[0], enc.num_subspaces,
                           enc.num_codes), dtype=np.float32)
        scale = -2.0 if self.metric == "l2" else -1.0
        for m, sub in enumerate(enc.quantizers):
            part = queries[:, m * enc.subdim:(m + 1) * enc.subdim]
            codebook = sub.codebook.data.astype(np.float64)
            tables[:, m] = scale * (part @ codebook.T)
        return tables

    def _probes(self, coarse: np.ndarray, sizes: np.ndarray, nprobe: int,
                needed: int) -> np.ndarray:
        """``(Q, num_cells)`` mask of the cells each query scans.

        A query visits cells by ascending ``(coarse distance, cell id)``:
        its ``nprobe`` nearest, widened until the visited cells hold at
        least ``needed`` items, so the result width is always
        ``min(k, len(index))``.
        """
        order = np.argsort(coarse, axis=1, kind="stable")
        held = np.cumsum(sizes[order], axis=1)
        count = np.maximum(nprobe, (held < needed).sum(axis=1) + 1)
        probes = np.zeros(coarse.shape, dtype=bool)
        ranks = np.arange(coarse.shape[1])[None, :]
        np.put_along_axis(probes, order, ranks < count[:, None], axis=1)
        return probes

    def _search(self, queries: np.ndarray, k: int,
                nprobe: Optional[int], rerank: Optional[int]
                ) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
        queries, nprobe, rerank = self._check_search_args(
            queries, k, nprobe, rerank)
        with self._lock:
            size = self._size
            # (codes, ids, bias, size) snapshots: rows < size are frozen.
            cells = [(c.codes, c.ids, c.bias, c.size) for c in self._cells]
        if size == 0:
            raise ValueError("search on an empty IVFIndex; add() items first")
        needed = min(rerank if rerank is not None else k, size)

        started = time.perf_counter()
        ids, dists, cells_probed = self._scan(queries, cells, nprobe, needed,
                                              ordered=rerank is None)
        stats: Dict[str, float] = {
            "scan_s": time.perf_counter() - started,
            "rerank_s": 0.0,
            "shortlist": float(needed),
            "cells_probed": float(cells_probed),
        }
        if rerank is None:
            return ids, dists, stats
        started = time.perf_counter()
        ids, dists = rerank_exact(self._store, queries.astype(np.float32),
                                  ids, k, metric=self.metric,
                                  query_block=self.query_block)
        stats["rerank_s"] = time.perf_counter() - started
        return ids, dists, stats

    def _scan(self, queries: np.ndarray, cells: list, nprobe: int,
              needed: int, ordered: bool
              ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Top-``needed`` codes per query over its probed cells, each row
        ascending by ``(distance, id)`` if ``ordered``, else unsorted."""
        sizes = np.array([cell[3] for cell in cells], dtype=np.int64)
        coarse = self._coarse_distances(queries)
        budget = _SCAN_PAIR_BUDGET
        block = min(self.query_block, queries.shape[0])
        largest = int(sizes.max())
        # A tile holds max(1, budget // nq) rows of one cell for the nq
        # queries probing it, so this bounds every tile.
        pairs = min(max(budget, block), block * largest)
        if self._binary:
            tile = _hamming_tiles(self.encoder.words, pairs)
            dtype = hamming_dtype(self.encoder.words)
        else:
            tile = _adc_kernel(pairs, min(pairs, largest))
            dtype = np.dtype(np.float32)

        out_ids = np.empty((queries.shape[0], needed), dtype=np.int64)
        out_dists = np.empty((queries.shape[0], needed), dtype=dtype)
        cells_probed = 0
        for qstart in range(0, queries.shape[0], block):
            operand = self._query_operand(queries[qstart:qstart + block])
            block_coarse = coarse[qstart:qstart + block]
            probes = self._probes(block_coarse, sizes, nprobe, needed)
            cells_probed += int(probes.sum())
            shortlists = [_Shortlist(needed) for _ in range(len(operand))]
            for cell in np.flatnonzero(probes.any(axis=0)):
                codes, ids, bias, size = cells[cell]
                chosen = np.flatnonzero(probes[:, cell])
                chosen_operand = operand[chosen]
                chosen_coarse = block_coarse[chosen, cell]
                rows = max(1, budget // chosen.size)
                for start in range(0, size, rows):
                    span = slice(start, min(size, start + rows))
                    dists = tile(chosen_operand, chosen_coarse, codes, bias,
                                 span)
                    for q, row in zip(chosen, dists):
                        shortlists[q].offer(row, ids[span])
            for q, shortlist in enumerate(shortlists):
                out_ids[qstart + q], out_dists[qstart + q] = \
                    shortlist.result(ordered)
        return out_ids, out_dists, cells_probed
