"""FloatStore / rerank_exact / explicit-id top-k primitives."""

import threading

import numpy as np
import pytest

from repro.retrieval import (
    FloatStore,
    exact_search,
    l2_normalize,
    merge_topk,
    rerank_exact,
    rowwise_topk,
)


class TestFloatStore:
    def test_append_assigns_sequential_ids(self, rng):
        store = FloatStore(4)
        assert store.append(rng.normal(size=(3, 4))).tolist() == [0, 1, 2]
        assert store.append(rng.normal(size=(2, 4))).tolist() == [3, 4]
        assert len(store) == 5

    def test_gather_round_trips_rows(self, rng):
        store = FloatStore(6)
        rows = rng.normal(size=(10, 6)).astype(np.float32)
        store.append(rows)
        picked = store.gather(np.array([[3, 1], [0, 9]]))
        np.testing.assert_array_equal(picked, rows[[[3, 1], [0, 9]]])

    def test_gather_validates_range(self, rng):
        store = FloatStore(2)
        store.append(rng.normal(size=(4, 2)))
        with pytest.raises(ValueError, match="ids"):
            store.gather(np.array([4]))
        with pytest.raises(ValueError, match="ids"):
            store.gather(np.array([-1]))

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            FloatStore(0)
        store = FloatStore(3)
        with pytest.raises(ValueError):
            store.append(rng.normal(size=(2, 4)))

    def test_concurrent_append_never_tears_rows(self, rng):
        store = FloatStore(8)
        blocks = [np.full((10, 8), float(i), dtype=np.float32)
                  for i in range(20)]
        errors = []

        def worker(block):
            try:
                ids = store.append(block)
                got = store.gather(ids)
                np.testing.assert_array_equal(got, block)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(b,), daemon=True)
                   for b in blocks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert len(store) == 200
        # Every stored row is one of the constant blocks, untorn.
        rows = store.gather(np.arange(len(store)))
        spread = rows.max(axis=1) - rows.min(axis=1)
        assert (spread == 0).all()


class TestRerankExact:
    def test_full_shortlist_matches_oracle(self, rng):
        corpus = l2_normalize(rng.normal(size=(50, 8)))
        queries = l2_normalize(rng.normal(size=(7, 8)))
        store = FloatStore(8)
        store.append(corpus)
        shortlist = np.tile(np.arange(50, dtype=np.int64), (7, 1))
        ids, dists = rerank_exact(store, queries, shortlist, k=5)
        oracle_ids, _ = exact_search(queries, corpus, 5)
        np.testing.assert_array_equal(ids, oracle_ids)
        assert dists.dtype == np.float32

    def test_query_block_invariant(self, rng):
        corpus = rng.normal(size=(40, 4))
        queries = rng.normal(size=(9, 4))
        store = FloatStore(4)
        store.append(corpus)
        shortlist = np.stack([rng.permutation(40)[:12] for _ in range(9)])
        a = rerank_exact(store, queries, shortlist, k=6, query_block=2)
        b = rerank_exact(store, queries, shortlist, k=6, query_block=100)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_validation(self, rng):
        store = FloatStore(4)
        store.append(rng.normal(size=(5, 4)))
        queries = rng.normal(size=(2, 4))
        shortlist = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="queries"):
            rerank_exact(store, rng.normal(size=(2, 5)), shortlist, 2)
        with pytest.raises(ValueError, match="shortlist"):
            rerank_exact(store, queries, np.zeros((3, 3), dtype=np.int64), 2)


class TestExplicitIdTopK:
    def test_rowwise_topk_breaks_ties_by_id(self):
        ids = np.array([[30, 10, 20]])
        values = np.array([[1.0, 1.0, 0.5]])
        out_ids, out_values = rowwise_topk(ids, values, 2)
        assert out_ids.tolist() == [[20, 10]]
        assert out_values.tolist() == [[0.5, 1.0]]

    def test_rowwise_topk_preserves_dtypes(self):
        ids = np.array([[5, 2]], dtype=np.int64)
        values = np.array([[7, 3]], dtype=np.uint16)
        out_ids, out_values = rowwise_topk(ids, values, 2)
        assert out_ids.dtype == np.int64
        assert out_values.dtype == np.uint16

    def test_merge_topk_equals_joint_selection(self, rng):
        values = rng.normal(size=(4, 20))
        ids = np.stack([rng.permutation(1000)[:20] for _ in range(4)])
        joint_ids, joint_values = rowwise_topk(ids, values, 6)
        merged = merge_topk(ids[:, :11], values[:, :11],
                            ids[:, 11:], values[:, 11:], 6)
        np.testing.assert_array_equal(merged[0], joint_ids)
        np.testing.assert_array_equal(merged[1], joint_values)

    def test_validation(self):
        with pytest.raises(ValueError):
            rowwise_topk(np.zeros((2, 3)), np.zeros((2, 4)), 1)
        with pytest.raises(ValueError):
            rowwise_topk(np.zeros((2, 0)), np.zeros((2, 0)), 1)
        with pytest.raises(ValueError):
            rowwise_topk(np.zeros((2, 3)), np.zeros((2, 3)), 0)
