"""Flat PQ index (``IVFIndex.flat`` over PQ codes): ADC lookup-table
search must equal explicit reconstruction."""

import tracemalloc

import numpy as np
import pytest

import repro.retrieval.ivf as ivf_module
from repro.nn.rng import derive_rng
from repro.retrieval import (
    IVFIndex,
    ProductQuantizer,
    exact_search,
    l2_normalize,
    topk_smallest,
)

DIM = 16


def make_pq(seed=0, num_subspaces=4, num_codes=16):
    data = l2_normalize(derive_rng(seed).normal(size=(400, DIM)))
    pq = ProductQuantizer(DIM, num_subspaces, num_codes,
                          rng=derive_rng(seed + 1))
    pq.fit(data, epochs=3, batch_size=100, seed=seed + 2)
    return pq, data


class TestADCCorrectness:
    def test_l2_matches_explicit_reconstruction(self, rng):
        pq, data = make_pq()
        index = IVFIndex.flat(pq, query_block=5)
        index.add(data[:120])
        queries = l2_normalize(rng.normal(size=(13, DIM)))
        ids, dists = index.search(queries, k=7)

        # The origin cell leaves every item as its own residual.
        recon = pq.decode(pq.encode(data[:120]))
        explicit = ((queries[:, None, :] - recon[None, :, :]) ** 2).sum(-1)
        ref_ids, ref_d = topk_smallest(explicit, 7)
        assert (ids == ref_ids).all()
        # Distances accumulate in float32 during the blocked scan.
        np.testing.assert_allclose(dists, ref_d, atol=1e-5)

    def test_query_block_invariant(self, rng):
        pq, data = make_pq()
        small = IVFIndex.flat(pq, query_block=2)
        big = IVFIndex.flat(pq, query_block=500)
        small.add(data[:90])
        big.add(data[:90])
        queries = l2_normalize(rng.normal(size=(11, DIM)))
        ids_a, d_a = small.search(queries, k=4)
        ids_b, d_b = big.search(queries, k=4)
        assert (ids_a == ids_b).all()
        np.testing.assert_array_equal(d_a, d_b)


class TestPQIndexContract:
    def test_ids_are_assignment_order(self):
        pq, data = make_pq()
        index = IVFIndex.flat(pq)
        assert index.add(data[:3]).tolist() == [0, 1, 2]
        assert index.add(data[3:5]).tolist() == [3, 4]
        assert len(index) == 5

    def test_empty_index_raises(self, rng):
        pq, _ = make_pq()
        with pytest.raises(ValueError, match="empty"):
            IVFIndex.flat(pq).search(rng.normal(size=(1, DIM)))

    def test_dimension_and_code_validation(self, rng):
        pq, data = make_pq()
        index = IVFIndex.flat(pq)
        index.add(data[:10])
        with pytest.raises(ValueError):
            index.search(rng.normal(size=(2, DIM + 1)))
        with pytest.raises(ValueError):
            index.add(rng.normal(size=(2, DIM - 1)))
        with pytest.raises(ValueError, match="nprobe"):
            index.search(data[:2], nprobe=2)

    def test_constructor_validation(self):
        pq, _ = make_pq()
        with pytest.raises(TypeError):
            IVFIndex.flat(object())
        with pytest.raises(ValueError):
            IVFIndex.flat(pq, query_block=0)

    def test_k_clamped_to_size(self, rng):
        pq, data = make_pq()
        index = IVFIndex.flat(pq)
        index.add(data[:3])
        ids, dists = index.search(l2_normalize(rng.normal(size=(2, DIM))),
                                  k=99)
        assert ids.shape == (2, 3) and dists.shape == (2, 3)


class TestBlockedScan:
    def test_pair_budget_invariant(self, rng, monkeypatch):
        pq, data = make_pq()
        index = IVFIndex.flat(pq)
        index.add(data)
        queries = l2_normalize(rng.normal(size=(8, DIM)))
        monkeypatch.setattr(ivf_module, "_SCAN_PAIR_BUDGET", 13)
        ids_a, d_a = index.search(queries, k=6)
        monkeypatch.setattr(ivf_module, "_SCAN_PAIR_BUDGET", 10 ** 6)
        ids_b, d_b = index.search(queries, k=6)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_array_equal(d_a, d_b)

    def test_peak_allocation_is_block_bounded(self, rng, monkeypatch):
        # The scan must never materialize a (Q, N) distance matrix.
        # With a 16 x 4096 pair budget the live scratch is two
        # (16, 4096) float32 tiles plus the tables; a dense (Q, N)
        # float64 matrix would be >= 3.8 MB at this shape.
        monkeypatch.setattr(ivf_module, "_SCAN_PAIR_BUDGET", 16 * 4096)
        pq, data = make_pq()
        corpus = l2_normalize(derive_rng(77).normal(size=(30_000, DIM)))
        index = IVFIndex.flat(pq, query_block=16)
        index.add(corpus)
        queries = l2_normalize(rng.normal(size=(16, DIM)))
        index.search(queries, k=10)  # warm any lazy imports/caches
        tracemalloc.start()
        index.search(queries, k=10)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1_500_000, f"scan peak {peak} bytes; not block-bounded"


class TestPQRerank:
    def test_full_corpus_rerank_matches_float_oracle(self, rng):
        pq, data = make_pq()
        index = IVFIndex.flat(pq, store_embeddings=True)
        index.add(data)
        queries = l2_normalize(rng.normal(size=(9, DIM)))
        ids, dists = index.search(queries, k=5, rerank=data.shape[0])
        oracle_ids, _ = exact_search(queries, data, 5)
        np.testing.assert_array_equal(ids, oracle_ids)
        assert dists.dtype == np.float32

    def test_rerank_recall_monotone_in_shortlist(self, rng):
        pq, data = make_pq()
        index = IVFIndex.flat(pq, store_embeddings=True)
        index.add(data)
        queries = l2_normalize(rng.normal(size=(10, DIM)))
        oracle_ids, _ = exact_search(queries, data, 5)
        previous = -1.0
        for width in (5, 25, 100, data.shape[0]):
            ids, _ = index.search(queries, k=5, rerank=width)
            score = np.mean([len(set(row) & set(ref)) / 5
                             for row, ref in zip(ids, oracle_ids)])
            assert score >= previous
            previous = score
        assert previous == 1.0

    def test_search_stats_report_scan_and_rerank(self, rng):
        pq, data = make_pq()
        index = IVFIndex.flat(pq, store_embeddings=True)
        index.add(data)
        queries = l2_normalize(rng.normal(size=(3, DIM)))
        _, _, stats = index.search_stats(queries, k=2, rerank=10)
        assert stats["scan_s"] >= 0.0 and stats["rerank_s"] >= 0.0
        assert stats["shortlist"] == 10.0

    def test_rerank_validation(self, rng):
        pq, data = make_pq()
        plain = IVFIndex.flat(pq)
        plain.add(data[:50])
        queries = l2_normalize(rng.normal(size=(2, DIM)))
        with pytest.raises(ValueError, match="store_embeddings"):
            plain.search(queries, k=3, rerank=10)
        stored = IVFIndex.flat(pq, store_embeddings=True)
        stored.add(data[:50])
        with pytest.raises(ValueError, match=">= k"):
            stored.search(queries, k=10, rerank=3)
