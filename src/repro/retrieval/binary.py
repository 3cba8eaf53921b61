"""Binary quantization of embeddings + popcount Hamming search.

The binary half of the retrieval workload: an L2-normalized embedding is
reduced to one bit per coordinate (``x[j] > threshold[j]``), the bits are
packed little-endian into ``uint64`` words, and nearest neighbours are
ranked by Hamming distance computed as the popcount of XORed words.
Per-coordinate *median* thresholds (``BinaryQuantizer.fit_median``)
balance the bit marginals, which is what PAPERS.md's covariance-structure
analysis of binary-quantized contrastive embeddings prescribes; plain
sign thresholds (``BinaryQuantizer.sign``) are the zero-centred baseline.

Packing layout: bit ``j`` of an embedding lands in word ``j // 64`` at
bit position ``j % 64`` (little-endian within the word), so
``Hamming(a, b) == popcount(pack(a) ^ pack(b))`` exactly, padding bits
are zero for both sides, and round trips are the identity — the
hypothesis suite in ``tests/retrieval`` pins all three properties.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "BinaryQuantizer",
    "hamming_dtype",
    "hamming_kernel",
    "pack_bits",
    "unpack_bits",
    "packed_hamming",
    "packed_words",
]

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
# 8-bit lookup-table popcount for numpy < 2.0; always defined so tests
# can force the fallback path on any numpy.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)],
                      dtype=np.uint8)
# Bytes per table-lookup call in hamming_kernel's fallback path.
_LUT_CHUNK = 1 << 15


def packed_words(dim: int) -> int:
    """Number of ``uint64`` words needed for ``dim`` bits."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return (int(dim) + 63) // 64


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(N, D)`` bit matrix into ``(N, ceil(D/64))`` uint64 words.

    Accepts bool or 0/1 integer input.  Bit ``j`` occupies word
    ``j // 64``, position ``j % 64``; padding bits beyond ``D`` are zero.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"expected (N, D) bits, got shape {bits.shape}")
    n, dim = bits.shape
    words = packed_words(dim)
    as_bytes = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((n, words * 8), dtype=np.uint8)
    padded[:, :as_bytes.shape[1]] = as_bytes
    return padded.view(np.dtype("<u8"))


def unpack_bits(codes: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(N, W)`` words back to ``(N, dim)`` bools."""
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    if codes.ndim != 2:
        raise ValueError(f"expected (N, W) codes, got shape {codes.shape}")
    if codes.shape[1] != packed_words(dim):
        raise ValueError(
            f"codes carry {codes.shape[1]} words but dim {dim} needs "
            f"{packed_words(dim)}"
        )
    as_bytes = codes.astype(np.dtype("<u8"), copy=False).view(np.uint8)
    bits = np.unpackbits(as_bytes.reshape(codes.shape[0], -1), axis=1,
                         bitorder="little")
    return bits[:, :dim].astype(bool)


def hamming_dtype(words: int) -> np.dtype:
    """Distance dtype for codes of ``words`` uint64 words.

    uint16 holds any distance up to 1023 words (65472 bits); the 4x
    narrower distance matrix is what makes the million-item scan beat
    the float baseline on memory bandwidth.  Both popcount paths emit
    this dtype, so results are byte-identical across numpy versions.
    """
    return np.dtype(np.uint16) if words * 64 <= np.iinfo(np.uint16).max \
        else np.dtype(np.int64)


def hamming_kernel(words: int, pairs: int
                   ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """A Hamming-distance kernel over scratch reused across calls.

    Returns ``kernel(query_codes, codes)``: the ``(Q, N)`` distances
    between ``(Q, words)`` query codes and ``(N, words)`` stored codes,
    for any ``Q * N <= pairs``, as a view into the scratch that stays
    valid until the next call.  XOR, popcount and the word sum write
    into buffers allocated once, so a scan over a million rows allocates
    nothing per tile; distances are :func:`hamming_dtype` on both
    popcount paths.
    """
    lut = not _HAS_BITWISE_COUNT  # 8-bit table popcount for numpy < 2.0
    xor_buf = np.empty(pairs * words, dtype=np.uint64)
    count_buf = None if lut else np.empty(pairs * words, dtype=np.uint8)
    dist_buf = np.empty(pairs, dtype=hamming_dtype(words))

    def kernel(query_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
        shape = (query_codes.shape[0], codes.shape[0])
        size = shape[0] * shape[1]
        xor = xor_buf[:size * words].reshape(shape + (words,))
        np.bitwise_xor(query_codes[:, None, :], codes[None, :, :], out=xor)
        if lut:
            # Table lookups overwrite each XOR byte with its popcount.
            # np.take widens uint8 indices to intp, so chunking keeps
            # that temporary at _LUT_CHUNK * 8 bytes.
            as_bytes = xor_buf[:size * words].view(np.uint8)
            for start in range(0, as_bytes.size, _LUT_CHUNK):
                chunk = as_bytes[start:start + _LUT_CHUNK]
                np.take(_POPCOUNT8, chunk, out=chunk, mode="clip")
            count = xor.view(np.uint8)
        else:
            count = count_buf[:size * words].reshape(shape + (words,))
            np.bitwise_count(xor, out=count)
        return np.sum(count, axis=-1, out=dist_buf[:size].reshape(shape))

    return kernel


def packed_hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between packed codes, summed over the word axis.

    Broadcasts over leading axes: ``packed_hamming(q[:, None], codes)``
    yields the full ``(Q, N)`` distance matrix in one shot.
    """
    x = np.bitwise_xor(np.asarray(a, dtype=np.uint64),
                       np.asarray(b, dtype=np.uint64))
    dtype = hamming_dtype(x.shape[-1])
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(x).sum(axis=-1, dtype=dtype)
    as_bytes = np.ascontiguousarray(x).view(np.uint8)
    return _POPCOUNT8[as_bytes].reshape(x.shape[:-1] + (-1,)).sum(
        axis=-1, dtype=dtype
    )


class BinaryQuantizer:
    """Per-coordinate threshold binarizer producing packed uint64 codes."""

    def __init__(self, thresholds: np.ndarray) -> None:
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.ndim != 1 or thresholds.size < 1:
            raise ValueError(
                f"thresholds must be a non-empty 1-D array, got shape "
                f"{thresholds.shape}"
            )
        self.thresholds = thresholds

    @property
    def dim(self) -> int:
        return int(self.thresholds.size)

    @property
    def words(self) -> int:
        return packed_words(self.dim)

    @classmethod
    def sign(cls, dim: int) -> "BinaryQuantizer":
        """Zero thresholds: the sign binarizer for centred embeddings."""
        return cls(np.zeros(int(dim), dtype=np.float64))

    @classmethod
    def fit_median(cls, embeddings: np.ndarray) -> "BinaryQuantizer":
        """Per-coordinate median thresholds fit on a calibration sample.

        Medians balance each bit's marginal (half the corpus on either
        side), maximising per-bit entropy under coordinate heterogeneity.
        """
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2 or embeddings.shape[0] < 1:
            raise ValueError(
                f"expected a non-empty (N, D) sample, got shape "
                f"{embeddings.shape}"
            )
        return cls(np.median(embeddings, axis=0))

    def binarize(self, x: np.ndarray) -> np.ndarray:
        """``(N, dim)`` embeddings to a boolean bit matrix (no packing).

        Float32 input is compared against the float64 thresholds as it
        is: NumPy promotes the comparison to float64 in small buffered
        chunks, so the bits are those of a float64 copy without one
        being made.  Any other input is read as float64.
        """
        x = np.asarray(x)
        if x.dtype != np.float32:
            x = x.astype(np.float64, copy=False)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(
                f"embeddings must have shape (N, {self.dim}), got {x.shape}"
            )
        return x > self.thresholds

    def encode(self, x: np.ndarray) -> np.ndarray:
        """``(N, dim)`` embeddings to ``(N, words)`` packed uint64 codes."""
        return pack_bits(self.binarize(x))
