"""End-to-end retrieval over the serving layer: embed → quantize → search.

:class:`RetrievalService` composes an
:class:`~repro.serving.EmbeddingService` (registry-resolved model,
request micro-batching) with a quantized
:class:`~repro.retrieval.IVFIndex`.
``add()`` embeds raw samples and stores their codes; ``search()`` embeds
raw queries and runs quantized top-k — the full production path the
ROADMAP's million-item workload describes.

The failure mode this layer exists to catch: the registry hot-swaps the
embedding model (a new ``publish()`` under the served name) while the
index still holds codes from the *old* model's embedding space — every
search result would be silently garbage.  The service binds the index to
the model version that filled it and re-checks the resolved version both
*before and after* the embedding round trip (the swap can land mid-query
while requests sit in the micro-batch queue), raising
:class:`StaleIndexError` instead of returning cross-space neighbours.
In-place edits to the published model (fingerprint drift) are caught the
same way via ``ModelVersion.is_stale()``.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple

import numpy as np

from ..serving.service import EmbeddingService
from .ivf import IVFIndex
from .trainer import l2_normalize

__all__ = ["RetrievalService", "StaleIndexError"]


class StaleIndexError(RuntimeError):
    """The index was built against a different model than is now served."""


def _check_index(index: IVFIndex) -> None:
    if not isinstance(index, IVFIndex):
        raise TypeError(
            f"index must be an IVFIndex, got {type(index).__name__}"
        )


class RetrievalService:
    """Quantized retrieval behind a micro-batching embedding service.

    Parameters
    ----------
    embedder:
        A (started or startable) :class:`EmbeddingService`; its registry
        and model name define the embedding space.
    index:
        The :class:`IVFIndex` receiving the codes (flat or partitioned).
    normalize:
        L2-normalize embeddings before indexing/searching (the paper's
        embeddings are unit-norm; quantizer thresholds assume it).
    """

    def __init__(self, embedder: EmbeddingService, index: IVFIndex, *,
                 normalize: bool = True) -> None:
        if not isinstance(embedder, EmbeddingService):
            raise TypeError(
                f"embedder must be an EmbeddingService, got "
                f"{type(embedder).__name__}"
            )
        _check_index(index)
        self.embedder = embedder
        self.normalize = bool(normalize)
        # RLock: swap_index() may be called from a callback that already
        # holds the lock through search()'s consistency window.
        self._lock = threading.RLock()
        self._index = index
        self._model_key: Optional[Tuple[str, int]] = None
        metrics = embedder.metrics
        labels = {"model": embedder.model_name}
        self._m_adds = metrics.counter("retrieval.items_indexed", **labels)
        self._m_searches = metrics.counter("retrieval.searches", **labels)
        self._m_stale = metrics.counter("retrieval.stale_rejections",
                                        **labels)
        self._m_cells = metrics.counter("retrieval.cells_probed", **labels)
        self._h_scan = metrics.histogram("retrieval.scan_seconds", **labels)
        self._h_rerank = metrics.histogram("retrieval.rerank_seconds",
                                           **labels)
        self._h_shortlist = metrics.histogram("retrieval.shortlist_size",
                                              **labels)

    # -- lifecycle (delegates to the embedder) -----------------------------

    def start(self) -> "RetrievalService":
        self.embedder.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self.embedder.stop(timeout)

    def __enter__(self) -> "RetrievalService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- introspection -----------------------------------------------------

    @property
    def index(self) -> IVFIndex:
        with self._lock:
            return self._index

    @property
    def model_key(self) -> Optional[Tuple[str, int]]:
        """``(name, version)`` the index is bound to; None until first add."""
        with self._lock:
            return self._model_key

    def __len__(self) -> int:
        return len(self.index)

    # -- consistency checks ------------------------------------------------

    def _resolve_entry(self):
        return self.embedder.registry.get(self.embedder.model_name)

    def _check_entry(self, when: str):
        """Resolve the served model and verify it matches the index."""
        entry = self._resolve_entry()
        with self._lock:
            bound = self._model_key
        if bound is not None and entry.key != bound:
            self._m_stale.inc()
            raise StaleIndexError(
                f"served model is now {entry.key} but the index holds "
                f"embeddings from {bound} ({when}); rebuild via "
                f"swap_index() before serving queries"
            )
        if entry.is_stale():
            self._m_stale.inc()
            raise StaleIndexError(
                f"published model {entry.key} was modified in place "
                f"(fingerprint drift, {when}); re-publish and rebuild "
                f"the index"
            )
        return entry

    def _embed(self, samples: Sequence[np.ndarray],
               timeout: Optional[float]) -> np.ndarray:
        rows = self.embedder.embed_many(list(samples), timeout)
        embeddings = np.stack([np.asarray(r, dtype=np.float64)
                               for r in rows])
        if embeddings.ndim != 2:
            raise ValueError(
                f"embedder produced {embeddings.ndim - 1}-D embeddings; "
                f"retrieval needs 1-D vectors per sample"
            )
        return l2_normalize(embeddings) if self.normalize else embeddings

    # -- indexing / search -------------------------------------------------

    def add(self, samples: Sequence[np.ndarray],
            timeout: Optional[float] = 30.0) -> np.ndarray:
        """Embed raw samples and append them to the index; returns ids.

        The first ``add`` binds the index to the currently served model
        version; later calls (and every search) must still resolve that
        version or they raise :class:`StaleIndexError`.
        """
        if len(samples) == 0:
            raise ValueError("add() needs at least one sample")
        entry = self._check_entry("while adding")
        embeddings = self._embed(samples, timeout)
        with self._lock:
            if self._model_key is None:
                self._model_key = entry.key
        # The swap may have landed while the embed round-tripped through
        # the micro-batch queue; never index cross-space vectors.
        self._check_entry("after embedding the added samples")
        ids = self.index.add(embeddings)
        self._m_adds.inc(len(ids))
        return ids

    def _run_search(self, index: IVFIndex, queries: np.ndarray, k: int,
                    nprobe: Optional[int], rerank: Optional[int]
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the index's instrumented search and record its stats."""
        ids, dists, stats = index.search_stats(queries, k, nprobe=nprobe,
                                               rerank=rerank)
        self._h_scan.observe(stats["scan_s"])
        self._h_shortlist.observe(stats["shortlist"])
        if rerank is not None:
            self._h_rerank.observe(stats["rerank_s"])
        self._m_cells.inc(int(stats["cells_probed"]))
        return ids, dists

    def search(self, samples: Sequence[np.ndarray], k: int = 10,
               timeout: Optional[float] = 30.0, *,
               nprobe: Optional[int] = None,
               rerank: Optional[int] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Embed raw queries and return quantized top-k ``(ids, distances)``.

        ``nprobe`` overrides the index's probe width for this call (the
        index rejects values outside ``[1, num_cells]``); ``rerank=R``
        re-scores the top-``R`` shortlist exactly when the index retains a
        float store.  Scan/rerank latency, shortlist width, and cells
        probed land in the ``retrieval.*`` metrics.
        """
        if len(samples) == 0:
            raise ValueError("search() needs at least one query sample")
        index = self.index
        if len(index) == 0:
            raise ValueError(
                "search on an empty retrieval index; add() items first"
            )
        self._check_entry("before embedding the queries")
        queries = self._embed(samples, timeout)
        self._check_entry("after embedding the queries")
        self._m_searches.inc(queries.shape[0])
        return self._run_search(index, queries, k, nprobe, rerank)

    def search_embeddings(self, embeddings: np.ndarray, k: int = 10, *,
                          nprobe: Optional[int] = None,
                          rerank: Optional[int] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Search with precomputed embeddings, skipping the embedder."""
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2:
            raise ValueError(
                f"expected (Q, dim) embeddings, got shape {embeddings.shape}"
            )
        index = self.index
        if embeddings.shape[1] != index.dim:
            raise ValueError(
                f"query embeddings have {embeddings.shape[1]} coordinates "
                f"but the index stores {index.dim}-dimensional items"
            )
        if self.normalize:
            embeddings = l2_normalize(embeddings)
        self._m_searches.inc(embeddings.shape[0])
        return self._run_search(index, embeddings, k, nprobe, rerank)

    # -- maintenance -------------------------------------------------------

    def swap_index(self, index: IVFIndex,
                   model_key: Optional[Tuple[str, int]] = None) -> IVFIndex:
        """Install a rebuilt index; returns the replaced one.

        ``model_key`` pins the new index to a specific published version;
        omit it to re-bind on the next ``add()``.
        """
        _check_index(index)
        with self._lock:
            previous = self._index
            self._index = index
            self._model_key = (tuple(model_key) if model_key is not None
                               else None)
            return previous
