"""IVFIndex: cell partitioning must never change what a full probe returns.

The load-bearing properties:

- ``nprobe=num_cells`` with binary cells is **id-for-id identical** to
  the flat index (``IVFIndex.flat``) over the same data — Hamming
  distances ignore the partition entirely.
- ``nprobe=num_cells`` with residual-PQ cells is byte-identical to a
  flat scan applying the same ADC arithmetic (float32 coarse term +
  per-item bias, then the gathered table entries added in subspace
  order).
- Rerank recall is monotone non-decreasing in the shortlist width.
- Concurrent ``add()``/``search()`` stays consistent (run under
  ``REPRO_SANITIZE=1`` in CI to check the locking).
"""

import threading

import numpy as np
import pytest

import repro.retrieval.binary as binary_module
import repro.retrieval.ivf as ivf_module
from repro.nn.rng import derive_rng
from repro.retrieval import (
    BinaryQuantizer,
    IVFIndex,
    ProductQuantizer,
    VectorQuantizer,
    exact_search,
    l2_normalize,
)
from repro.retrieval.ivf import _assign_cells

from .test_binary_index import POPCOUNT_PATHS

DIM = 16


def make_corpus(rng, n=600):
    return l2_normalize(rng.normal(size=(n, DIM)))


def fit_binary_ivf(corpus, num_cells=8, **kwargs):
    return IVFIndex.fit_binary(corpus, num_cells=num_cells, epochs=2,
                               seed=5, **kwargs)


def fit_pq_ivf(corpus, num_cells=8, **kwargs):
    kwargs.setdefault("num_subspaces", 4)
    kwargs.setdefault("num_codes", 16)
    return IVFIndex.fit(corpus, num_cells=num_cells, epochs=2, seed=6,
                        **kwargs)


def recall(ids, oracle_ids):
    k = oracle_ids.shape[1]
    return np.mean([len(set(row) & set(ref)) / k
                    for row, ref in zip(ids, oracle_ids)])


class TestFullProbeIdentity:
    @pytest.mark.parametrize("bitwise_count", POPCOUNT_PATHS)
    def test_binary_full_probe_matches_exhaustive_index(
            self, rng, monkeypatch, bitwise_count):
        monkeypatch.setattr(binary_module, "_HAS_BITWISE_COUNT",
                            bitwise_count)
        corpus = make_corpus(rng)
        ivf = fit_binary_ivf(corpus)
        ivf.add(corpus)
        flat = IVFIndex.flat(ivf.encoder)
        flat.add(corpus)
        queries = l2_normalize(rng.normal(size=(9, DIM)))
        ivf_ids, ivf_d = ivf.search(queries, k=12, nprobe=ivf.num_cells)
        flat_ids, flat_d = flat.search(queries, k=12)
        np.testing.assert_array_equal(ivf_ids, flat_ids)
        np.testing.assert_array_equal(ivf_d, flat_d)
        assert ivf_d.dtype == flat_d.dtype

    def test_pq_full_probe_matches_flat_adc_reference(self, rng):
        corpus = make_corpus(rng)
        ivf = fit_pq_ivf(corpus)
        ivf.add(corpus)
        queries = l2_normalize(rng.normal(size=(7, DIM)))
        ids, dists = ivf.search(queries, k=9, nprobe=ivf.num_cells)

        # Flat reference reproducing the index's exact arithmetic:
        # float32 bias + float32 coarse term, then each of the M
        # gathered table entries added in subspace order (float32),
        # ranked by (distance, id).
        cells = _assign_cells(ivf.coarse.codebook.data, corpus)
        centroids = ivf.coarse.codebook.data[cells].astype(np.float64)
        codes = ivf.encoder.encode(corpus - centroids)
        recon = ivf.encoder.decode(codes).astype(np.float64)
        bias = (2.0 * np.einsum("nd,nd->n", centroids, recon)
                + np.einsum("nd,nd->n", recon, recon)).astype(np.float32)
        all_centroids = ivf.coarse.codebook.data.astype(np.float64)
        coarse = (np.sum(queries ** 2, axis=1)[:, None]
                  - 2.0 * (queries @ all_centroids.T)
                  + np.sum(all_centroids ** 2, axis=1)[None, :]
                  ).astype(np.float32)
        sub = ivf.encoder.subdim
        for qi, query in enumerate(queries):
            flat = bias + coarse[qi, cells]
            for m, q_sub in enumerate(ivf.encoder.quantizers):
                table = -2.0 * (query[m * sub:(m + 1) * sub]
                                @ q_sub.codebook.data.astype(np.float64).T)
                flat = flat + table.astype(np.float32)[codes[:, m]]
            order = np.lexsort((np.arange(corpus.shape[0]), flat))[:9]
            np.testing.assert_array_equal(ids[qi], order)
            np.testing.assert_array_equal(dists[qi], flat[order])

    def test_scan_grouping_and_query_block_invariant(self, rng, monkeypatch):
        # The scan tiles each cell under a (query, row) pair budget;
        # per-pair arithmetic must not depend on the tiling or the
        # query block.
        corpus = make_corpus(rng)
        ivf = fit_pq_ivf(corpus)
        ivf.add(corpus)
        queries = l2_normalize(rng.normal(size=(10, DIM)))
        ids_a, d_a = ivf.search(queries, k=8, nprobe=3)
        monkeypatch.setattr(ivf_module, "_SCAN_PAIR_BUDGET", 1)
        ivf.query_block = 2
        ids_b, d_b = ivf.search(queries, k=8, nprobe=3)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_array_equal(d_a, d_b)

    def test_partial_probe_is_subset_discipline(self, rng):
        # Any nprobe returns ids drawn from the full-probe candidate
        # ranking (probing fewer cells can only drop candidates).
        corpus = make_corpus(rng)
        ivf = fit_pq_ivf(corpus)
        ivf.add(corpus)
        queries = l2_normalize(rng.normal(size=(5, DIM)))
        full_ids, _ = ivf.search(queries, k=50, nprobe=ivf.num_cells)
        part_ids, _ = ivf.search(queries, k=10, nprobe=2)
        assert part_ids.shape == (5, 10)


class TestRerank:
    def test_rerank_recall_monotone_in_shortlist(self, rng):
        corpus = make_corpus(rng)
        ivf = fit_pq_ivf(corpus, store_embeddings=True)
        ivf.add(corpus)
        queries = l2_normalize(rng.normal(size=(12, DIM)))
        oracle_ids, _ = exact_search(queries, corpus, 5)
        previous = -1.0
        for width in (5, 20, 80, 300, corpus.shape[0]):
            ids, _ = ivf.search(queries, k=5, nprobe=ivf.num_cells,
                                rerank=width)
            score = recall(ids, oracle_ids)
            assert score >= previous
            previous = score
        # Full-corpus shortlist + exact rerank == the float oracle.
        assert previous == 1.0

    def test_rerank_full_corpus_matches_oracle_ids(self, rng):
        corpus = make_corpus(rng)
        ivf = fit_binary_ivf(corpus, store_embeddings=True)
        ivf.add(corpus)
        queries = l2_normalize(rng.normal(size=(6, DIM)))
        ids, dists = ivf.search(queries, k=4, nprobe=ivf.num_cells,
                                rerank=corpus.shape[0])
        oracle_ids, _ = exact_search(queries, corpus, 4)
        np.testing.assert_array_equal(ids, oracle_ids)
        assert dists.dtype == np.float32

    def test_rerank_validation(self, rng):
        corpus = make_corpus(rng, n=80)
        plain = fit_pq_ivf(corpus)
        plain.add(corpus)
        queries = l2_normalize(rng.normal(size=(2, DIM)))
        with pytest.raises(ValueError, match="store_embeddings"):
            plain.search(queries, k=3, rerank=10)
        stored = IVFIndex(plain.coarse, plain.encoder,
                          store_embeddings=True)
        stored.add(corpus)
        with pytest.raises(ValueError, match=">= k"):
            stored.search(queries, k=10, rerank=3)


class TestProbeWidening:
    def test_result_width_is_min_k_size_even_at_nprobe_one(self, rng):
        corpus = make_corpus(rng, n=60)
        ivf = fit_pq_ivf(corpus)
        ivf.add(corpus)
        queries = l2_normalize(rng.normal(size=(4, DIM)))
        # k exceeds any single cell: probing must widen beyond nprobe=1.
        ids, dists = ivf.search(queries, k=55, nprobe=1)
        assert ids.shape == (4, 55)
        assert dists.shape == (4, 55)
        # No duplicate ids within a row (each cell contributes once).
        for row in ids:
            assert len(set(row.tolist())) == row.size

    def test_stats_report_probes_and_timings(self, rng):
        corpus = make_corpus(rng)
        ivf = fit_binary_ivf(corpus, store_embeddings=True)
        ivf.add(corpus)
        queries = l2_normalize(rng.normal(size=(3, DIM)))
        _, _, stats = ivf.search_stats(queries, k=2, nprobe=3, rerank=10)
        assert stats["cells_probed"] >= 3 * queries.shape[0]
        assert stats["scan_s"] >= 0.0 and stats["rerank_s"] >= 0.0
        assert stats["shortlist"] == 10.0


class TestContract:
    def test_ids_are_global_assignment_order(self, rng):
        corpus = make_corpus(rng, n=50)
        ivf = fit_binary_ivf(corpus)
        assert ivf.add(corpus[:30]).tolist() == list(range(30))
        assert ivf.add(corpus[30:]).tolist() == list(range(30, 50))
        assert len(ivf) == 50
        assert int(ivf.cell_sizes().sum()) == 50

    def test_fit_is_deterministic(self, rng):
        corpus = make_corpus(rng, n=200)
        queries = l2_normalize(rng.normal(size=(5, DIM)))
        runs = []
        for _ in range(2):
            ivf = fit_pq_ivf(corpus)
            ivf.add(corpus)
            runs.append(ivf.search(queries, k=8))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_constructor_validation(self, rng):
        corpus = make_corpus(rng, n=80)
        coarse = VectorQuantizer(4, DIM, rng=derive_rng(1))
        coarse.fit(corpus, epochs=1, seed=2)
        pq = ProductQuantizer(DIM, 4, 8, rng=derive_rng(3))
        pq.fit(corpus, epochs=1, seed=4)
        with pytest.raises(TypeError):
            IVFIndex(object(), pq)
        with pytest.raises(TypeError):
            IVFIndex(coarse, object())
        with pytest.raises(ValueError, match="dim"):
            IVFIndex(coarse, BinaryQuantizer.sign(DIM + 1))
        with pytest.raises(ValueError, match="nprobe"):
            IVFIndex(coarse, pq, nprobe=0)
        with pytest.raises(ValueError, match="nprobe"):
            IVFIndex(coarse, pq, nprobe=5)

    def test_search_validation(self, rng):
        corpus = make_corpus(rng, n=80)
        ivf = fit_pq_ivf(corpus)
        with pytest.raises(ValueError, match="empty"):
            ivf.search(l2_normalize(rng.normal(size=(1, DIM))))
        ivf.add(corpus)
        with pytest.raises(ValueError):
            ivf.search(rng.normal(size=(2, DIM + 1)))
        with pytest.raises(ValueError, match="nprobe"):
            ivf.search(l2_normalize(rng.normal(size=(1, DIM))),
                       nprobe=ivf.num_cells + 1)
        with pytest.raises(ValueError, match="at least one"):
            ivf.add(np.zeros((0, DIM)))


class TestConcurrency:
    def test_concurrent_add_and_search_stay_consistent(self, rng):
        corpus = make_corpus(rng, n=400)
        ivf = fit_binary_ivf(corpus[:100], store_embeddings=True)
        ivf.add(corpus[:100])
        queries = l2_normalize(rng.normal(size=(4, DIM)))
        errors = []
        stop = threading.Event()

        def adder():
            try:
                for start in range(100, 400, 30):
                    ivf.add(corpus[start:start + 30])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                stop.set()

        def searcher():
            try:
                while not stop.is_set():
                    ids, dists = ivf.search(queries, k=5, rerank=20)
                    assert ids.shape == (4, 5)
                    # Ids must always be resolvable against the store:
                    # the snapshot discipline forbids a search seeing
                    # codes whose float rows have not landed yet.
                    ivf.store.gather(ids)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=adder, daemon=True),
                   threading.Thread(target=searcher, daemon=True),
                   threading.Thread(target=searcher, daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(ivf) == 400
        assert len(ivf.store) == 400
