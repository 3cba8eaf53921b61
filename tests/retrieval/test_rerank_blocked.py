"""Blocked rerank: one reused scratch per call, today's results byte for byte.

``rerank_exact`` gathers each block of shortlists into one scratch of at
most ``_RERANK_BLOCK_BYTES`` (or one query's rows), and the IVF scan hands
it an unsorted shortlist.  Three contracts:

- ids and distances equal ``tests/helpers.py``'s ``rerank_reference``
  (the batched body that allocated a fresh gather and difference per
  block) byte for byte, at any block size;
- ``search(q, k, rerank=R)`` equals that reference applied to
  ``search(q, R)``'s ordered shortlist, ties at the boundary included;
- one call allocates about one block's scratch, whatever the query count.
"""

import tracemalloc

import numpy as np
import pytest

import repro.retrieval.ivf as ivf_module
import repro.retrieval.rerank as rerank_module
from repro.retrieval import (
    BinaryQuantizer,
    FloatStore,
    IVFIndex,
    rerank_exact,
)

from ..helpers import rerank_reference


def assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def random_case(seed):
    """Store, queries and unique-per-row shortlists of a random shape.

    Every other case rounds the data to integers and duplicates rows, so
    exact distance ties are common and only the id order breaks them.
    """
    rng = np.random.default_rng([seed, 19])
    dim = int(rng.integers(3, 101))
    n = int(rng.integers(1, 400))
    count = int(rng.integers(1, 71))
    corpus = rng.normal(size=(n, dim))
    queries = rng.normal(size=(count, dim))
    if seed % 2:
        corpus = np.round(corpus)
        corpus[1::2] = corpus[: n // 2]
        queries = np.round(queries)
    width = int(rng.integers(1, n + 1))
    k = int(rng.integers(1, width + 1))
    shortlist = np.stack([rng.permutation(n)[:width] for _ in range(count)])
    store = FloatStore(dim)
    store.append(corpus)
    return store, queries.astype(np.float32), shortlist, k, rng


@pytest.mark.parametrize("seed", range(16))
def test_blocked_rerank_equals_reference(seed, monkeypatch):
    store, queries, shortlist, k, rng = random_case(seed)
    want = rerank_reference(store, queries, shortlist, k)
    several = int(rng.integers(2, 11))
    for query_block in (1, several, 32):
        got = rerank_exact(store, queries, shortlist, k,
                           query_block=query_block)
        assert_same_bytes(got, want)
    # Blocks cut by the byte budget rather than by query_block.
    query_bytes = shortlist.shape[1] * store.dim * 4
    for per_block in (1, several):
        monkeypatch.setattr(rerank_module, "_RERANK_BLOCK_BYTES",
                            per_block * query_bytes)
        got = rerank_exact(store, queries, shortlist, k)
        assert_same_bytes(got, want)


@pytest.mark.parametrize("pair_budget", [None, 64])
@pytest.mark.parametrize("flat", [False, True])
def test_search_rerank_equals_reference_on_ordered_shortlist(
        rng, monkeypatch, pair_budget, flat):
    # 8-bit codes give 9 distinct Hamming distances over 800 rows, so
    # the shortlist boundary always cuts through a tie group.  A small
    # pair budget makes the scan cut its held set many times.
    corpus = rng.normal(size=(800, 8))
    queries = rng.normal(size=(9, 8))
    if flat:
        index = IVFIndex.flat(BinaryQuantizer.fit_median(corpus),
                              query_block=4, store_embeddings=True)
    else:
        index = IVFIndex.fit_binary(corpus, num_cells=4, nprobe=2, epochs=1,
                                    seed=3, store_embeddings=True)
    index.add(corpus)
    if pair_budget is not None:
        monkeypatch.setattr(ivf_module, "_SCAN_PAIR_BUDGET", pair_budget)
    k, width = 5, 60
    shortlist = index.search(queries, width)[0]
    wider = index.search(queries, width + 1)[1]
    assert (wider[:, width - 1] == wider[:, width]).all()
    want = rerank_reference(index.store, queries, shortlist, k)
    assert_same_bytes(index.search(queries, k, rerank=width), want)


def test_one_call_allocates_one_block_of_scratch(rng):
    count, width, dim = 64, 4000, 64
    store = FloatStore(dim)
    store.append(rng.normal(size=(8000, dim)))
    queries = rng.normal(size=(count, dim)).astype(np.float32)
    shortlist = np.stack([rng.permutation(8000)[:width]
                          for _ in range(count)])
    query_bytes = width * dim * 4
    per_block = max(1, rerank_module._RERANK_BLOCK_BYTES // query_bytes)
    scratch = min(per_block, count) * query_bytes
    # The scratch, plus as much again for the block's distances, the
    # selection's temporaries and the outputs.  Gathering all 64 queries
    # at once would take 64x the scratch.
    bound = 2 * scratch
    tracemalloc.start()
    try:
        rerank_exact(store, queries, shortlist, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


class TestRerankInputChecks:
    @pytest.fixture
    def store(self, rng):
        store = FloatStore(4)
        store.append(rng.normal(size=(6, 4)))
        return store

    def test_k_must_be_positive(self, store, rng):
        shortlist = np.array([[0, 1, 2], [3, 4, 5]])
        with pytest.raises(ValueError, match="k must be"):
            rerank_exact(store, rng.normal(size=(2, 4)), shortlist, 0)

    def test_shortlist_must_not_be_empty(self, store, rng):
        shortlist = np.zeros((2, 0), dtype=np.int64)
        with pytest.raises(ValueError, match="empty"):
            rerank_exact(store, rng.normal(size=(2, 4)), shortlist, 1)

    @pytest.mark.parametrize("bad_id", [6, -1])
    def test_ids_must_be_stored_rows(self, store, rng, bad_id):
        # Id 6 is past the 6 stored rows but inside the store's capacity.
        shortlist = np.array([[0, 1, 2], [3, bad_id, 5]])
        with pytest.raises(ValueError, match="ids"):
            rerank_exact(store, rng.normal(size=(2, 4)), shortlist, 2)
