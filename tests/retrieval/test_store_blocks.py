"""FloatStore blocks: growth never copies stored rows, results never change.

The store keeps its rows in fixed blocks of ``_STORE_BLOCK_BYTES`` and
allocates a new block when the last one fills.  These tests shrink the
block to a few rows so every path crosses many block boundaries:

- an append never copies or replaces an earlier block, and its peak
  allocation is bounded by one block plus its input, whatever the store
  already holds (the doubling growth this replaced copied every row);
- a store of many blocks gathers, reranks and serves ``search(...,
  rerank=R)`` byte for byte as a one-block store over the same rows;
- ``IVFIndex.add`` stores, codes and routes rows byte for byte as
  ``tests/helpers.py``'s ``add_reference`` (which copied every chunk to
  float64), and a binary ``add`` of float32 rows makes no such copy.
"""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.retrieval.rerank as rerank_module
from repro.retrieval import (
    BinaryQuantizer,
    FloatStore,
    IVFIndex,
    l2_normalize,
    rerank_exact,
)

from ..helpers import add_reference
from .test_rerank_blocked import assert_same_bytes


def set_block_rows(patcher, rows, dim):
    """Make stores of width ``dim`` built from now on hold ``rows`` per block."""
    patcher.setattr(rerank_module, "_STORE_BLOCK_BYTES", rows * 4 * dim)


def filled_stores(monkeypatch, chunks, block_rows):
    """A store of ``block_rows``-row blocks and a one-block twin."""
    dim = chunks[0].shape[1]
    whole = FloatStore(dim)
    set_block_rows(monkeypatch, block_rows, dim)
    blocked = FloatStore(dim)
    for chunk in chunks:
        whole.append(chunk)
        blocked.append(chunk)
    assert len(whole.snapshot()[0]) == 1
    return blocked, whole


class TestGrowthNeverCopies:
    DIM, BLOCK_ROWS, CHUNK = 64, 64, 24

    def test_crossing_append_keeps_every_earlier_block(self, rng,
                                                       monkeypatch):
        set_block_rows(monkeypatch, self.BLOCK_ROWS, self.DIM)
        store = FloatStore(self.DIM)
        crossings = 0
        for _ in range(40):
            before, stored = store.snapshot()
            saved = np.concatenate(before or [np.empty((0, self.DIM))])
            store.append(rng.normal(size=(self.CHUNK, self.DIM)))
            after, size = store.snapshot()
            assert len(after) == -(-size // self.BLOCK_ROWS)
            assert all(a is b for a, b in zip(before, after))
            # Rows stored before the append are untouched.
            assert (np.concatenate(after)[:stored].tobytes()
                    == saved[:stored].tobytes())
            if before and len(after) > len(before):
                crossings += 1
        assert crossings >= 10

    def test_append_peak_is_one_block_plus_input(self, rng, monkeypatch):
        set_block_rows(monkeypatch, self.BLOCK_ROWS, self.DIM)
        store = FloatStore(self.DIM)
        chunks = rng.normal(size=(300, self.CHUNK, self.DIM)).astype(
            np.float32)
        block_bytes = self.BLOCK_ROWS * self.DIM * 4
        bound = block_bytes + chunks[0].nbytes
        peaks = []
        tracemalloc.start()
        try:
            for chunk in chunks:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                store.append(chunk)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        # 300 appends fill 113 blocks.  A store grown by doubling would
        # copy every stored row each time it grew.
        assert max(peaks) <= bound, (max(peaks), bound)
        # Only the published tuple of blocks (a pointer per block) grows
        # with the store, far below one block.
        early, late = max(peaks[:30]), max(peaks[-30:])
        assert late - early < block_bytes // 8, (early, late)


class TestMultiBlockResults:
    def test_gather_equals_concatenated_inputs(self, rng, monkeypatch):
        chunks = [rng.normal(size=(n, 5)) for n in (3, 11, 1, 7, 20, 4)]
        blocked, _ = filled_stores(monkeypatch, chunks, block_rows=4)
        rows = np.concatenate(chunks).astype(np.float32)
        assert len(blocked.snapshot()[0]) == 12
        for ids in (np.arange(rows.shape[0]),
                    rng.integers(0, rows.shape[0], size=(6, 9)),
                    np.zeros((2, 0), dtype=np.int64)):
            got = blocked.gather(ids)
            assert got.dtype == np.float32
            assert got.tobytes() == rows[ids].tobytes()
        with pytest.raises(ValueError, match="ids"):
            blocked.gather(np.array([rows.shape[0]]))

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_rerank_equals_one_block_store(self, rng, monkeypatch, metric):
        chunks = [rng.normal(size=(n, 8)) for n in (50, 13, 70, 27)]
        blocked, whole = filled_stores(monkeypatch, chunks, block_rows=9)
        queries = rng.normal(size=(11, 8))
        shortlist = np.stack([rng.permutation(160)[:40] for _ in range(11)])
        for query_block in (1, 4, 32):
            got = rerank_exact(blocked, queries, shortlist, 10,
                               metric=metric, query_block=query_block)
            want = rerank_exact(whole, queries, shortlist, 10,
                                metric=metric, query_block=query_block)
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("flat", [False, True])
    def test_search_rerank_equals_one_block_index(self, rng, monkeypatch,
                                                  flat):
        corpus = l2_normalize(rng.normal(size=(600, 16)))
        queries = l2_normalize(rng.normal(size=(9, 16)))

        def build():
            if flat:
                return IVFIndex.flat(BinaryQuantizer.fit_median(corpus),
                                     store_embeddings=True)
            return IVFIndex.fit_binary(corpus, num_cells=4, nprobe=2,
                                       epochs=1, seed=3,
                                       store_embeddings=True)

        whole = build()
        set_block_rows(monkeypatch, 7, 16)
        blocked = build()
        for start in range(0, 600, 45):
            whole.add(corpus[start:start + 45])
            blocked.add(corpus[start:start + 45])
        assert len(blocked.store.snapshot()[0]) == 86
        for rerank in (10, 60, 600):
            assert_same_bytes(blocked.search(queries, 5, rerank=rerank),
                              whole.search(queries, 5, rerank=rerank))

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(0, 20), min_size=1, max_size=12),
           block_rows=st.integers(1, 7), dim=st.integers(1, 5),
           seed=st.integers(0, 2**16))
    def test_random_appends_read_back(self, sizes, block_rows, dim, seed):
        rng = np.random.default_rng(seed)
        chunks = [rng.normal(size=(n, dim)) for n in sizes]
        whole = FloatStore(dim)
        with pytest.MonkeyPatch.context() as patcher:
            set_block_rows(patcher, block_rows, dim)
            blocked = FloatStore(dim)
        start = 0
        for chunk in chunks:
            ids = blocked.append(chunk)
            assert ids.tolist() == list(range(start, start + len(chunk)))
            whole.append(chunk)
            start += len(chunk)
        blocks, size = blocked.snapshot()
        assert size == start and len(blocked) == start
        assert len(blocks) == -(-size // block_rows)
        rows = np.concatenate(chunks).astype(np.float32)
        assert blocked.gather(np.arange(size)).tobytes() == rows.tobytes()
        if size:
            queries = rng.normal(size=(3, dim))
            shortlist = rng.integers(0, size, size=(3, 2 * size))
            k = int(rng.integers(1, 2 * size + 1))
            assert_same_bytes(rerank_exact(blocked, queries, shortlist, k),
                              rerank_exact(whole, queries, shortlist, k))

    def test_concurrent_add_and_search_across_blocks(self, rng,
                                                     monkeypatch):
        # TestConcurrency's pattern in test_ivf.py, with 7-row blocks so
        # every add crosses several block boundaries under the searchers.
        corpus = l2_normalize(rng.normal(size=(400, 16)))
        queries = l2_normalize(rng.normal(size=(4, 16)))
        set_block_rows(monkeypatch, 7, 16)
        ivf = IVFIndex.fit_binary(corpus[:100], num_cells=8, epochs=2,
                                  seed=5, store_embeddings=True)
        ivf.add(corpus[:100])
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
                    rows = ivf.store.gather(ids)
                    np.testing.assert_array_equal(
                        rows, corpus.astype(np.float32)[ids])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=adder, daemon=True),
                   threading.Thread(target=searcher, daemon=True),
                   threading.Thread(target=searcher, daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(ivf) == 400 and len(ivf.store) == 400
        assert len(ivf.store.snapshot()[0]) == 58
        stored = ivf.store.gather(np.arange(400))
        assert stored.tobytes() == corpus.astype(np.float32).tobytes()


def twin_indexes(kind, corpus):
    """Two empty indexes over the same coarse cells and encoder.

    Binary thresholds are medians of an odd-sized sample, so each is one
    of the corpus values: that row's bit is 0 in float64 and flips when
    its float32 cast rounds up, and codes taken at the wrong precision
    show.
    """
    if kind == "binary":
        base = IVFIndex.fit_binary(corpus[:-1], num_cells=6, nprobe=2,
                                   epochs=2, seed=5)
    else:
        base = IVFIndex.fit(corpus, num_cells=6, num_subspaces=4,
                            num_codes=16, nprobe=2, epochs=2, seed=6)
    return tuple(IVFIndex(base.coarse, base.encoder, nprobe=2,
                          store_embeddings=True) for _ in range(2))


class TestAddCopies:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["binary", "pq"])
    def test_add_equals_reference(self, rng, kind, dtype):
        corpus = l2_normalize(rng.normal(size=(500, 16)))
        index, reference = twin_indexes(kind, corpus)
        for start in range(0, 500, 120):
            chunk = corpus[start:start + 120].astype(dtype)
            got = index.add(chunk)
            want = add_reference(reference, chunk)
            assert got.tobytes() == want.tobytes()
        assert len(index) == len(reference) == 500
        for cell, twin in zip(index._cells, reference._cells):
            assert cell.size == twin.size
            assert_same_bytes(
                (cell.codes[:cell.size], cell.ids[:cell.size]),
                (twin.codes[:twin.size], twin.ids[:twin.size]))
            if kind == "pq":
                assert_same_bytes((cell.bias[:cell.size],),
                                  (twin.bias[:twin.size],))
        everything = np.arange(500)
        assert_same_bytes((index.store.gather(everything),),
                          (reference.store.gather(everything),))

    def test_binary_add_copies_no_chunk(self, rng):
        count, dim = 20_000, 64
        corpus = l2_normalize(rng.normal(size=(2 * count, dim))).astype(
            np.float32)
        index = IVFIndex.fit_binary(corpus[:2000], num_cells=4, nprobe=1,
                                    epochs=1, seed=1, store_embeddings=True)
        index.add(corpus[:count])  # allocates the store's block
        chunk = corpus[count:]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            index.add(chunk)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Below the float32 chunk itself: neither a float64 nor a float32
        # copy of it is made.
        assert peak < chunk.nbytes, (peak, chunk.nbytes)
        stored = index.store.gather(np.arange(count, 2 * count))
        assert stored.tobytes() == chunk.tobytes()
