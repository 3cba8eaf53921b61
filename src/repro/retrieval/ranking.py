"""Exact, deterministic top-k selection shared by every index.

Every retrieval structure in this package — :class:`~repro.retrieval.IVFIndex`
(flat or partitioned, binary or PQ cells), the rerank stage, and the float
oracle :func:`~repro.retrieval.exact_search` — ranks candidates with the
*same* total order: ascending ``(distance, item id)``.  Hamming distances
over short codes produce massive tie groups (a 64-bit code has only 65
distinct distances over a million items), so a plain ``argpartition``
would return an arbitrary member of the boundary tie group and
approximate indexes could never be compared id-for-id against the
brute-force oracle.  Resolving ties by item id makes every search result
a pure function of the stored vectors, which is what the property tests
assert.

Two steps implement that order: :func:`smallest_set` cuts a row to its
``k`` smallest pairs, and :func:`sort_ascending` sorts them.
:func:`select_smallest` runs both, for the matrix helpers below and the
rerank stage; the IVF scan cuts with the first alone, and sorts only
when no rerank re-ranks its shortlist anyway.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["smallest_set", "sort_ascending", "select_smallest",
           "topk_smallest", "topk_largest", "merge_topk", "rowwise_topk"]


def smallest_set(values: np.ndarray, k: int,
                 ids: Optional[np.ndarray] = None) -> np.ndarray:
    """Positions of the ``k`` smallest ``(value, id)`` pairs of a 1-D row.

    ``ids`` breaks ties; without it the position itself does.  Returns
    ``min(k, len(values))`` positions in no particular order.  Only the
    k-th order statistic is searched for, and the boundary tie group
    gives up all but its smallest ids (a partition, not a sort of the
    whole group).
    """
    n = values.shape[0]
    k = min(int(k), n)
    if k == n:
        return np.arange(n)
    # np.partition of the values (no index array) finds the k-th value;
    # on Hamming counts it beats a bincount histogram 2.5-4x at every
    # row length from 8K to 1M.
    kth = np.partition(values, k - 1)[k - 1]
    cand = np.flatnonzero(values <= kth)
    if cand.size > k:
        # Too many ties at the k-th value: keep the smallest ids.
        tied = values[cand] == kth
        border = cand[tied]
        need = k - (cand.size - border.size)
        ties = border if ids is None else ids[border]
        border = border[np.argpartition(ties, need - 1)[:need]]
        cand = np.concatenate([cand[~tied], border])
    return cand


def sort_ascending(values: np.ndarray, positions: np.ndarray,
                   ids: Optional[np.ndarray] = None) -> np.ndarray:
    """``positions`` of a 1-D row sorted by ascending ``(value, id)``.

    ``ids`` breaks ties; without it the position itself does.
    """
    keys = positions if ids is None else ids[positions]
    return positions[np.lexsort((keys, values[positions]))]


def select_smallest(values: np.ndarray, k: int,
                    ids: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`smallest_set`, sorted by the same ``(value, id)`` order."""
    return sort_ascending(values, smallest_set(values, k, ids), ids)


def _check_k(n: int, k: int) -> None:
    if n == 0:
        raise ValueError("cannot select top-k from an empty candidate set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def topk_smallest(values: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-k by ascending ``(value, column index)``.

    Parameters
    ----------
    values:
        ``(Q, N)`` matrix of distances, one row per query.
    k:
        Number of neighbours requested; clamped to ``N`` when the row is
        shorter, so callers always get ``min(k, N)`` columns back.

    Returns
    -------
    ``(indices, values)`` — both ``(Q, min(k, N))``, row ``i`` sorted
    ascending by distance with ties broken by the smaller column index.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a (queries, items) matrix, got "
                         f"shape {values.shape}")
    _check_k(values.shape[1], k)
    indices = np.stack([select_smallest(row, k) for row in values])
    return indices, np.take_along_axis(values, indices, axis=1)


def topk_largest(values: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-k by *descending* ``(value, ascending column index)``."""
    values = np.asarray(values)
    if values.dtype.kind == "u":  # unsigned negation would wrap
        values = values.astype(np.int64)
    indices, negated = topk_smallest(-values, k)
    return indices, -negated


def rowwise_topk(ids: np.ndarray, values: np.ndarray,
                 k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k per row by ascending ``(value, id)`` for *explicit* id arrays.

    Unlike :func:`topk_smallest`, whose ties resolve by column position,
    the candidates here carry arbitrary item ids (a rerank shortlist, a
    merge of two partial results), so the tie-break must use the ids
    themselves to preserve the package-wide ``(distance, id)`` total
    order.  Both inputs are ``(Q, C)``; returns ``(ids, values)`` of
    shape ``(Q, min(k, C))``.
    """
    ids = np.asarray(ids)
    values = np.asarray(values)
    if ids.shape != values.shape or ids.ndim != 2:
        raise ValueError(
            f"ids and values must share a (Q, C) shape, got {ids.shape} "
            f"and {values.shape}"
        )
    _check_k(ids.shape[1], k)
    order = np.stack([select_smallest(row_values, k, row_ids)
                      for row_ids, row_values in zip(ids, values)])
    return (np.take_along_axis(ids, order, axis=1),
            np.take_along_axis(values, order, axis=1))


def merge_topk(ids_a: np.ndarray, values_a: np.ndarray,
               ids_b: np.ndarray, values_b: np.ndarray,
               k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two per-row candidate sets into one ``(value, id)`` top-k.

    Folds chunked partial results together without ever materializing
    the full ``(Q, N)`` distance matrix.  Candidate sets must be
    disjoint per row; widths may differ.  Returns ``(ids, values)`` of
    shape ``(Q, min(k, total))``.
    """
    ids = np.concatenate([np.asarray(ids_a), np.asarray(ids_b)], axis=1)
    values = np.concatenate([np.asarray(values_a), np.asarray(values_b)],
                            axis=1)
    return rowwise_topk(ids, values, k)
