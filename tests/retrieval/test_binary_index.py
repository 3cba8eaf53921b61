"""Unit tests for BinaryQuantizer and the flat binary index
(``IVFIndex.flat`` over packed codes) beyond the property suite."""

import threading
import tracemalloc

import numpy as np
import pytest

import repro.retrieval.binary as binary_module
import repro.retrieval.ivf as ivf_module
from repro.retrieval import (
    BinaryQuantizer,
    IVFIndex,
    exact_search,
    hamming_dtype,
    l2_normalize,
    packed_hamming,
    topk_smallest,
)

#: Both popcount paths: np.bitwise_count (numpy >= 2.0) and the 8-bit
#: lookup table the scan falls back to on older numpy.
POPCOUNT_PATHS = [
    pytest.param(True, id="bitwise_count",
                 marks=pytest.mark.skipif(
                     not hasattr(np, "bitwise_count"),
                     reason="np.bitwise_count needs numpy >= 2.0")),
    pytest.param(False, id="lut"),
]


def make_index(rng, n=100, dim=24, **kwargs):
    items = l2_normalize(rng.normal(size=(n, dim)))
    quantizer = BinaryQuantizer.fit_median(items)
    index = IVFIndex.flat(quantizer, **kwargs)
    index.add(items)
    return index, items


class TestBinaryQuantizer:
    def test_median_thresholds_balance_bits(self, rng):
        items = rng.normal(loc=3.0, size=(101, 8))  # offset: sign would fail
        quantizer = BinaryQuantizer.fit_median(items)
        bits = quantizer.binarize(items)
        on_fraction = bits.mean(axis=0)
        assert ((on_fraction > 0.3) & (on_fraction < 0.7)).all()

    def test_sign_is_zero_thresholds(self):
        quantizer = BinaryQuantizer.sign(5)
        assert (quantizer.thresholds == 0).all()
        assert quantizer.dim == 5 and quantizer.words == 1

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            BinaryQuantizer(np.zeros((2, 3)))
        quantizer = BinaryQuantizer.sign(4)
        with pytest.raises(ValueError):
            quantizer.binarize(rng.normal(size=(3, 5)))
        with pytest.raises(ValueError):
            BinaryQuantizer.fit_median(np.zeros((0, 4)))


class TestPackBits:
    def test_bool_and_integer_bits_pack_to_the_same_bytes(self, rng):
        bits = rng.random((37, 130)) < 0.5
        codes = binary_module.pack_bits(bits)
        assert codes.tobytes() == binary_module.pack_bits(
            bits.astype(np.int64)).tobytes()

    def test_packing_does_not_copy_the_bit_matrix(self, rng):
        bits = rng.random((20_000, 64)) < 0.5
        binary_module.pack_bits(bits[:2])  # warm any lazy imports
        tracemalloc.start()
        codes = binary_module.pack_bits(bits)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # packed bytes plus the zero-padded words: two code-sized
        # buffers.  A uint8 copy of the bits alone is 8x the codes.
        assert peak <= 3 * codes.nbytes, (peak, codes.nbytes)


class TestBinaryIndex:
    def test_ids_are_assignment_order(self, rng):
        index, items = make_index(rng, n=10)
        more = l2_normalize(rng.normal(size=(4, 24)))
        ids = index.add(more)
        assert ids.tolist() == [10, 11, 12, 13]
        assert len(index) == 14

    def test_self_query_returns_self_first(self, rng):
        index, items = make_index(rng, n=50)
        ids, dists = index.search(items[:7], k=1)
        assert ids[:, 0].tolist() == list(range(7))
        assert (dists[:, 0] == 0).all()

    def test_k_clamped_to_size(self, rng):
        index, items = make_index(rng, n=5)
        ids, dists = index.search(items[:2], k=50)
        assert ids.shape == (2, 5) and dists.shape == (2, 5)

    def test_query_block_invariant(self, rng):
        index, items = make_index(rng, n=60, query_block=7)
        reference = IVFIndex.flat(index.encoder, query_block=1000)
        reference.add(items)
        queries = l2_normalize(rng.normal(size=(23, 24)))
        ids_a, d_a = index.search(queries, k=9)
        ids_b, d_b = reference.search(queries, k=9)
        assert (ids_a == ids_b).all() and (d_a == d_b).all()

    def test_empty_index_raises(self, rng):
        index = IVFIndex.flat(BinaryQuantizer.sign(8))
        with pytest.raises(ValueError, match="empty"):
            index.search(rng.normal(size=(1, 8)), k=1)

    def test_dimension_mismatch_raises(self, rng):
        index, _ = make_index(rng)
        with pytest.raises(ValueError):
            index.search(rng.normal(size=(2, 25)), k=1)
        with pytest.raises(ValueError):
            index.add(rng.normal(size=(2, 25)))

    def test_requires_binary_quantizer(self):
        with pytest.raises(TypeError):
            IVFIndex.flat(object())

    def test_concurrent_add_and_search(self, rng):
        index, items = make_index(rng, n=200)
        queries = l2_normalize(rng.normal(size=(8, 24)))
        expected_ids, expected_d = index.search(queries, k=5)
        errors = []
        stop = threading.Event()

        def adder():
            local = np.random.default_rng(99)
            while not stop.is_set():
                index.add(l2_normalize(local.normal(size=(16, 24))))

        def searcher():
            try:
                for _ in range(30):
                    ids, dists = index.search(queries, k=5)
                    # Earlier items keep their ids; new items can only
                    # displace by being strictly better or tying later,
                    # so distances never get worse.
                    assert (dists <= expected_d).all()
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=adder) for _ in range(2)]
        threads += [threading.Thread(target=searcher) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads[2:]:
            t.join()
        stop.set()
        for t in threads[:2]:
            t.join()
        assert not errors
        assert len(index) > 200


class TestScanScratchReuse:
    """ISSUE 10 satellite 6: the scratch-reusing scan must be
    byte-identical to the naive full-matrix path on both popcounts."""

    def _reference(self, index, items, queries, k):
        query_codes = index.encoder.encode(queries)
        dists = packed_hamming(query_codes[:, None],
                               index.encoder.encode(items))
        cols, top = topk_smallest(dists, k)
        return cols.astype(np.int64), top

    def test_byte_identity_against_full_matrix(self, rng):
        index, items = make_index(rng, n=300, query_block=6)
        queries = l2_normalize(rng.normal(size=(19, 24)))
        ids, dists = index.search(queries, k=8)
        ref_ids, ref_d = self._reference(index, items, queries, 8)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_d)
        assert dists.dtype == ref_d.dtype

    def test_distances_are_uint16_for_short_codes(self, rng):
        index, items = make_index(rng, n=40)
        _, dists = index.search(items[:3], k=4)
        assert dists.dtype == np.uint16
        assert hamming_dtype(index.encoder.words) == np.uint16
        # 2000 words * 64 bits overflows uint16 -> widen to int64.
        assert hamming_dtype(2000) == np.int64

    def test_fallback_popcount_path_matches(self, rng, monkeypatch):
        index, _ = make_index(rng, n=150, query_block=4)
        queries = l2_normalize(rng.normal(size=(9, 24)))
        fast_ids, fast_d = index.search(queries, k=6)
        monkeypatch.setattr(binary_module, "_HAS_BITWISE_COUNT", False)
        slow_ids, slow_d = index.search(queries, k=6)
        np.testing.assert_array_equal(fast_ids, slow_ids)
        np.testing.assert_array_equal(fast_d, slow_d)
        assert slow_d.dtype == fast_d.dtype


class TestBoundedScan:
    @pytest.mark.parametrize("bitwise_count", POPCOUNT_PATHS)
    def test_peak_allocation_is_block_bounded(self, rng, monkeypatch,
                                              bitwise_count):
        # Same shape as the flat PQ test: a dense (16, N) scan would
        # hold a 3.8 MB XOR buffer here; a 16 x 4096 pair budget keeps
        # every scratch buffer tile-sized on either popcount path.
        monkeypatch.setattr(binary_module, "_HAS_BITWISE_COUNT",
                            bitwise_count)
        monkeypatch.setattr(ivf_module, "_SCAN_PAIR_BUDGET", 16 * 4096)
        index, _ = make_index(rng, n=30_000, query_block=16)
        queries = l2_normalize(rng.normal(size=(16, 24)))
        index.search(queries, k=10)  # warm any lazy imports/caches
        tracemalloc.start()
        index.search(queries, k=10)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1_500_000, f"scan peak {peak} bytes; not block-bounded"

    def test_pair_budget_invariant(self, rng, monkeypatch):
        index, _ = make_index(rng, n=500)
        queries = l2_normalize(rng.normal(size=(11, 24)))
        expected = index.search(queries, k=30)
        for budget in (1, 7, 64):
            monkeypatch.setattr(ivf_module, "_SCAN_PAIR_BUDGET", budget)
            got = index.search(queries, k=30)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])


class TestBinaryRerank:
    def test_full_corpus_rerank_matches_float_oracle(self, rng):
        items = l2_normalize(rng.normal(size=(120, 24)))
        quantizer = BinaryQuantizer.fit_median(items)
        index = IVFIndex.flat(quantizer, store_embeddings=True)
        index.add(items)
        queries = l2_normalize(rng.normal(size=(7, 24)))
        ids, dists = index.search(queries, k=5, rerank=items.shape[0])
        oracle_ids, _ = exact_search(queries, items, 5)
        np.testing.assert_array_equal(ids, oracle_ids)
        assert dists.dtype == np.float32

    def test_rerank_recall_monotone_in_shortlist(self, rng):
        items = l2_normalize(rng.normal(size=(200, 24)))
        quantizer = BinaryQuantizer.fit_median(items)
        index = IVFIndex.flat(quantizer, store_embeddings=True)
        index.add(items)
        queries = l2_normalize(rng.normal(size=(11, 24)))
        oracle_ids, _ = exact_search(queries, items, 5)
        previous = -1.0
        for width in (5, 20, 80, items.shape[0]):
            ids, _ = index.search(queries, k=5, rerank=width)
            score = np.mean([len(set(row) & set(ref)) / 5
                             for row, ref in zip(ids, oracle_ids)])
            assert score >= previous
            previous = score
        assert previous == 1.0

    def test_search_stats_and_validation(self, rng):
        items = l2_normalize(rng.normal(size=(60, 24)))
        quantizer = BinaryQuantizer.fit_median(items)
        index = IVFIndex.flat(quantizer, store_embeddings=True)
        index.add(items)
        queries = l2_normalize(rng.normal(size=(2, 24)))
        _, _, stats = index.search_stats(queries, k=2, rerank=10)
        assert stats["scan_s"] >= 0.0 and stats["rerank_s"] >= 0.0
        assert stats["shortlist"] == 10.0
        with pytest.raises(ValueError, match=">= k"):
            index.search(queries, k=10, rerank=3)
        plain = IVFIndex.flat(quantizer)
        plain.add(items)
        with pytest.raises(ValueError, match="store_embeddings"):
            plain.search(queries, k=2, rerank=10)
