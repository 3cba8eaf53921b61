"""Hypothesis property tests for the binary retrieval core.

The four pinned invariants from ISSUE 7:

1. pack/unpack round-trip identity for arbitrary bit widths;
2. ``Hamming(a, b) == popcount(pack(a) ^ pack(b))``;
3. the Hamming triangle inequality on packed codes;
4. the flat binary index's top-k agreeing with a brute-force
   ``np.unpackbits`` oracle (same ascending ``(distance, id)`` order) on
   both popcount paths.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.retrieval.binary as binary_module
from repro.retrieval import (
    BinaryQuantizer,
    IVFIndex,
    pack_bits,
    packed_hamming,
    packed_words,
    unpack_bits,
)

from .test_binary_index import POPCOUNT_PATHS

# Dims straddling the word boundaries (1..200 covers 1, 63..65, 127..129).
dims = st.integers(min_value=1, max_value=200)


def bit_matrices(max_rows=8, max_dim=200):
    return st.integers(1, max_dim).flatmap(
        lambda d: hnp.arrays(np.bool_, st.integers(1, max_rows).map(
            lambda n: (n, d)))
    )


@settings(max_examples=80, deadline=None)
@given(bit_matrices())
def test_pack_unpack_round_trip(bits):
    """unpack(pack(bits)) is the identity for any width."""
    packed = pack_bits(bits)
    assert packed.dtype == np.uint64
    assert packed.shape == (bits.shape[0], packed_words(bits.shape[1]))
    assert (unpack_bits(packed, bits.shape[1]) == bits).all()


@settings(max_examples=80, deadline=None)
@given(bit_matrices(max_rows=1).flatmap(
    lambda a: hnp.arrays(np.bool_, (2, a.shape[1]))))
def test_hamming_equals_popcount_of_xor(pair):
    """Hamming(a, b) == popcount(pack(a) ^ pack(b)) exactly."""
    a, b = pair[:1], pair[1:]
    expected = int(np.logical_xor(a, b).sum())
    got = int(packed_hamming(pack_bits(a), pack_bits(b))[0])
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 150).flatmap(
    lambda d: hnp.arrays(np.bool_, (3, d))))
def test_hamming_metric_axioms(triple):
    """Identity, symmetry, and the triangle inequality on packed codes."""
    packed = pack_bits(triple)
    a, b, c = packed[:1], packed[1:2], packed[2:3]
    dab = int(packed_hamming(a, b)[0])
    dba = int(packed_hamming(b, a)[0])
    dac = int(packed_hamming(a, c)[0])
    dcb = int(packed_hamming(c, b)[0])
    assert int(packed_hamming(a, a)[0]) == 0
    assert dab == dba
    assert dab <= dac + dcb


@pytest.mark.parametrize("bitwise_count", POPCOUNT_PATHS)
@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 120),
    st.integers(2, 40),
    st.integers(1, 6),
    st.integers(1, 12),
    st.integers(0, 2 ** 32 - 1),
)
def test_topk_matches_unpackbits_oracle(bitwise_count, dim, n_items,
                                        n_queries, k, seed):
    """Index top-k == brute force over np.unpackbits, id for id."""
    rng = np.random.default_rng(seed)
    items = rng.normal(size=(n_items, dim))
    queries = rng.normal(size=(n_queries, dim))
    quantizer = BinaryQuantizer.fit_median(items)
    index = IVFIndex.flat(quantizer, query_block=3)
    index.add(items)
    with mock.patch.object(binary_module, "_HAS_BITWISE_COUNT",
                           bitwise_count):
        ids, dists = index.search(queries, k=k)

    # Oracle: unpack the packed words with np.unpackbits and scan.
    words = quantizer.encode(items)
    item_bits = np.unpackbits(
        words.astype("<u8").view(np.uint8).reshape(n_items, -1),
        axis=1, bitorder="little")[:, :dim]
    query_bits = quantizer.binarize(queries).astype(np.uint8)
    k_eff = min(k, n_items)
    for q in range(n_queries):
        brute = np.logical_xor(query_bits[q][None, :],
                               item_bits).sum(axis=1)
        order = np.lexsort((np.arange(n_items), brute))[:k_eff]
        assert ids[q].tolist() == order.tolist()
        assert dists[q].tolist() == brute[order].tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 130), st.integers(0, 2 ** 32 - 1))
def test_padding_bits_never_leak(dim, seed):
    """Distances never exceed dim: padding bits are zero on both sides."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(6, dim)).astype(bool)
    packed = pack_bits(bits)
    dists = packed_hamming(packed[:, None, :], packed[None, :, :])
    assert dists.max() <= dim
    assert (np.diagonal(dists) == 0).all()
