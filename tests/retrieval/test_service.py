"""Fault injection for RetrievalService (ISSUE 7 satellite).

Covers: index hot-swap mid-query (stale fingerprint / version drift
detected before results are served), empty index, dimension-mismatch
queries, and concurrent add/search under threads.
"""

import threading

import numpy as np
import pytest

from repro import nn
from repro.retrieval import (
    IVFIndex,
    BinaryQuantizer,
    ProductQuantizer,
    RetrievalService,
    StaleIndexError,
    l2_normalize,
)
from repro.serving import EmbeddingService, ModelRegistry

IN_DIM, EMB_DIM = 6, 8


def make_registry(seed=0, name="enc"):
    reg = ModelRegistry()
    reg.publish(name, nn.Linear(IN_DIM, EMB_DIM,
                                rng=np.random.default_rng(seed)))
    return reg


def make_service(reg=None, index=None, **embed_kwargs):
    reg = reg if reg is not None else make_registry()
    embed_kwargs.setdefault("max_wait_ms", 0.5)
    embedder = EmbeddingService(reg, "enc", **embed_kwargs)
    if index is None:
        index = IVFIndex.flat(BinaryQuantizer.sign(EMB_DIM))
    return RetrievalService(embedder, index), reg


def samples(rng, n):
    return [rng.normal(size=IN_DIM) for i in range(n)]


class TestEndToEnd:
    def test_add_then_search_round_trip(self, rng):
        svc, reg = make_service()
        with svc:
            items = samples(rng, 30)
            ids = svc.add(items)
            assert ids.tolist() == list(range(30))
            assert svc.model_key == ("enc", 1)
            rids, dists = svc.search(items[:4], k=1)
        # A query identical to an indexed item has Hamming distance 0
        # to its own code; ranked by (0, id) it wins its own slot.
        assert rids[:, 0].tolist() == [0, 1, 2, 3]
        assert (dists[:, 0] == 0).all()

    def test_pq_index_backend(self, rng):
        reg = make_registry()
        model = reg.get("enc").model
        corpus = np.stack([
            l2_normalize(np.asarray(model(
                nn.Tensor(x[None], dtype=np.float64)).data))[0]
            for x in samples(rng, 60)
        ])
        pq = ProductQuantizer(EMB_DIM, 2, 8, rng=np.random.default_rng(1))
        pq.fit(corpus, epochs=2, batch_size=30, seed=2)
        svc, _ = make_service(reg, index=IVFIndex.flat(pq))
        with svc:
            query_items = samples(rng, 25)
            svc.add(query_items)
            ids, dists = svc.search(query_items[:3], k=5)
        assert ids.shape == (3, 5)

    def test_search_embeddings_skips_embedder(self, rng):
        svc, _ = make_service()
        svc.index.add(l2_normalize(rng.normal(size=(12, EMB_DIM))))
        ids, _ = svc.search_embeddings(rng.normal(size=(2, EMB_DIM)), k=4)
        assert ids.shape == (2, 4)  # embedder never started


class TestFaults:
    def test_hot_swap_between_queries(self, rng):
        svc, reg = make_service()
        with svc:
            svc.add(samples(rng, 10))
            reg.publish("enc", nn.Linear(IN_DIM, EMB_DIM,
                                         rng=np.random.default_rng(9)))
            with pytest.raises(StaleIndexError, match="enc.*2"):
                svc.search(samples(rng, 2))
            with pytest.raises(StaleIndexError):
                svc.add(samples(rng, 2))

    def test_hot_swap_mid_query(self, rng):
        """Swap landing while requests sit in the micro-batch queue."""
        reg = make_registry()
        barrier = threading.Barrier(2)

        class SwapDuringForward(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = nn.Linear(IN_DIM, EMB_DIM,
                                       rng=np.random.default_rng(0))
                self.swapped = False

            def forward(self, x):
                if not self.swapped:
                    self.swapped = True
                    barrier.wait()  # let the publisher thread run
                    barrier.wait()
                return self.inner(x)

        reg.publish("enc", SwapDuringForward())
        index = IVFIndex.flat(BinaryQuantizer.sign(EMB_DIM))
        index.add(l2_normalize(rng.normal(size=(5, EMB_DIM))))
        svc, _ = make_service(reg, index=index)
        # Bind to the version serving right now, as a rebuild would.
        svc._model_key = reg.get("enc").key

        def publisher():
            barrier.wait()
            reg.publish("enc", nn.Linear(IN_DIM, EMB_DIM,
                                         rng=np.random.default_rng(5)))
            barrier.wait()

        thread = threading.Thread(target=publisher)
        thread.start()
        with svc:
            with pytest.raises(StaleIndexError, match="after embedding"):
                svc.search(samples(rng, 1), k=2)
        thread.join()

    def test_in_place_edit_detected_by_fingerprint(self, rng):
        svc, reg = make_service()
        with svc:
            svc.add(samples(rng, 8))
            model = reg.get("enc").model
            model.weight.data[...] *= 1.01  # "training" in place
            model.weight.bump_version()
            with pytest.raises(StaleIndexError, match="fingerprint"):
                svc.search(samples(rng, 1))

    def test_empty_index_raises(self, rng):
        svc, _ = make_service()
        with svc:
            with pytest.raises(ValueError, match="empty"):
                svc.search(samples(rng, 1))
        with pytest.raises(ValueError, match="at least one"):
            svc.add([])

    def test_dimension_mismatch_raises(self, rng):
        svc, _ = make_service()
        svc.index.add(l2_normalize(rng.normal(size=(4, EMB_DIM))))
        with pytest.raises(ValueError, match="coordinates"):
            svc.search_embeddings(rng.normal(size=(2, EMB_DIM + 1)))
        with pytest.raises(ValueError, match="shape"):
            svc.search_embeddings(rng.normal(size=EMB_DIM))

    def test_swap_index_rebinds(self, rng):
        svc, reg = make_service()
        with svc:
            svc.add(samples(rng, 6))
            reg.publish("enc", nn.Linear(IN_DIM, EMB_DIM,
                                         rng=np.random.default_rng(3)))
            fresh = IVFIndex.flat(BinaryQuantizer.sign(EMB_DIM))
            old = svc.swap_index(fresh)
            assert len(old) == 6 and svc.model_key is None
            svc.add(samples(rng, 6))  # re-binds to version 2
            assert svc.model_key == ("enc", 2)
            ids, _ = svc.search(samples(rng, 2), k=3)
            assert ids.shape == (2, 3)

    def test_swap_index_type_checked(self):
        svc, _ = make_service()
        with pytest.raises(TypeError):
            svc.swap_index(object())


class TestConcurrency:
    def test_concurrent_add_and_search(self, rng):
        svc, _ = make_service(max_batch_size=16, max_wait_ms=2.0)
        errors = []
        with svc:
            svc.add(samples(rng, 20))

            def adder(seed):
                local = np.random.default_rng(seed)
                try:
                    for _ in range(5):
                        svc.add([local.normal(size=IN_DIM)
                                 for _ in range(4)])
                except BaseException as exc:
                    errors.append(exc)

            def searcher(seed):
                local = np.random.default_rng(seed)
                try:
                    for _ in range(10):
                        ids, dists = svc.search(
                            [local.normal(size=IN_DIM)], k=5)
                        assert ids.shape == (1, 5)
                        # signed cast: unsigned diff would wrap, not fail
                        assert (np.diff(dists[0].astype(np.int64))
                                >= 0).all()
                except BaseException as exc:
                    errors.append(exc)

            threads = ([threading.Thread(target=adder, args=(40 + i,))
                        for i in range(2)]
                       + [threading.Thread(target=searcher, args=(50 + i,))
                          for i in range(2)])
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert len(svc) == 20 + 2 * 5 * 4


class TestIVFPlumbing:
    """ISSUE 10: nprobe/rerank flow through the service with telemetry."""

    def _make_ivf_service(self, rng, store_embeddings=True):
        reg = make_registry()
        model = reg.get("enc").model
        corpus = np.stack([
            l2_normalize(np.asarray(model(
                nn.Tensor(x[None], dtype=np.float64)).data))[0]
            for x in samples(rng, 80)
        ])
        ivf = IVFIndex.fit(corpus, num_cells=4, num_subspaces=2,
                           num_codes=8, nprobe=2, epochs=2, seed=3,
                           store_embeddings=store_embeddings)
        svc, _ = make_service(reg, index=ivf)
        return svc, reg

    def test_ivf_index_accepted_and_searchable(self, rng):
        svc, _ = self._make_ivf_service(rng)
        with svc:
            items = samples(rng, 30)
            svc.add(items)
            ids, dists = svc.search(items[:3], k=5, nprobe=4, rerank=20)
        assert ids.shape == (3, 5)
        assert dists.dtype == np.float32

    def test_nprobe_rejected_for_exhaustive_index(self, rng):
        svc, _ = make_service()
        svc.index.add(l2_normalize(rng.normal(size=(12, EMB_DIM))))
        with pytest.raises(ValueError, match="nprobe"):
            svc.search_embeddings(rng.normal(size=(2, EMB_DIM)), k=3,
                                  nprobe=2)

    def test_search_telemetry_lands_in_metrics(self, rng):
        svc, _ = self._make_ivf_service(rng)
        metrics = svc.embedder.metrics
        with svc:
            svc.add(samples(rng, 30))
            svc.search(samples(rng, 4), k=3, rerank=10)
            svc.search(samples(rng, 2), k=3)
        scan = metrics.histogram("retrieval.scan_seconds", model="enc")
        rerank = metrics.histogram("retrieval.rerank_seconds", model="enc")
        shortlist = metrics.histogram("retrieval.shortlist_size",
                                      model="enc")
        cells = metrics.counter("retrieval.cells_probed", model="enc")
        assert scan.count == 2          # every search observes a scan
        assert rerank.count == 1        # only the reranked one
        assert shortlist.count == 2
        assert cells.value >= 2 * (4 + 2)  # >= nprobe * queries per call

    def test_swap_to_ivf_index(self, rng):
        svc, reg = make_service()
        svc.index.add(l2_normalize(rng.normal(size=(10, EMB_DIM))))
        corpus = l2_normalize(rng.normal(size=(60, EMB_DIM)))
        ivf = IVFIndex.fit_binary(corpus, num_cells=4, nprobe=4,
                                  epochs=2, seed=8)
        svc.swap_index(ivf)
        ivf.add(corpus)
        ids, _ = svc.search_embeddings(corpus[:2], k=3, nprobe=2)
        assert ids.shape == (2, 3)


class TestSearchStatsContract:
    """What the repository benchmark relies on: the service reaches the
    index only through ``index.search_stats`` (so a wrapper installed on
    the instance sees every search), once per call, and the stats carry
    the scan/rerank split, the shortlist width and the cells probed."""

    STATS_KEYS = {"scan_s", "rerank_s", "shortlist", "cells_probed"}

    def _indexes(self, corpus):
        flat = IVFIndex.flat(BinaryQuantizer.fit_median(corpus),
                             store_embeddings=True)
        cells = IVFIndex.fit_binary(corpus, num_cells=4, nprobe=2,
                                    epochs=2, seed=8,
                                    store_embeddings=True)
        return {"flat": flat, "cells": cells}

    @pytest.mark.parametrize("kind", ["flat", "cells"])
    def test_wrapper_on_instance_called_once_per_search(self, rng, kind):
        corpus = l2_normalize(rng.normal(size=(60, EMB_DIM)))
        index = self._indexes(corpus)[kind]
        index.add(corpus)
        svc, _ = make_service(index=index)
        seen = []
        original = index.search_stats

        def search_stats(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.append(result[2])
            return result

        index.search_stats = search_stats
        queries = corpus[:3]
        for kwargs in ({}, {"rerank": 20},
                       {"nprobe": index.num_cells, "rerank": 20}):
            before = len(seen)
            ids, _ = svc.search_embeddings(queries, k=5, **kwargs)
            assert len(seen) == before + 1
            assert ids.shape == (3, 5)
            stats = seen[-1]
            assert self.STATS_KEYS <= set(stats)
            assert stats["scan_s"] >= 0.0 and stats["rerank_s"] >= 0.0
            assert stats["shortlist"] == kwargs.get("rerank", 5)
            assert stats["cells_probed"] >= queries.shape[0]
