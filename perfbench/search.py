"""Workload ``search-ivf``: IVF binary search with float rerank at 1M items.

The clustered 1M x 64-d corpus of ``benchmarks/bench_retrieval.py``
(128 Gaussian clusters, L2-normalised) is generated from the workload
seed and indexed by ``IVFIndex.fit_binary`` with a float rerank store,
filled by chunked ``add()``.  One thread sends closed-loop batches of 16
queries through ``RetrievalService.search_embeddings`` at the first
point of ``LADDER`` that reaches recall@10 >= 0.9 on calibration queries
kept apart from the timed ones.  This is the only workload where the
scan, the rerank and index writes do the work, and its 256 MB float
store is far larger than the CPU caches.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np

from repro.retrieval import (IVFIndex, RetrievalService, exact_search,
                             merge_topk, recall_at_k)
from repro.serving import EmbeddingService, ModelRegistry

from .common import (Result, chunk_percentiles, chunk_rates, peak_rss_mb,
                     percentile, rows_ms)
from .spans import Recorder, accounting, maybe_span, subtree

ITEMS = 1_000_000
DIM = 64
CLUSTERS = 128
CHUNK = 100_000
#: corpus rows per oracle call: bounds its (queries, rows) float64 scores.
ORACLE_CHUNK = 25_000
TRAIN_SAMPLE = 20_000
NUM_CELLS = 256
K = 10
BATCH = 16
CALIBRATION_QUERIES = 128
TIMED_QUERIES = 256
RECALL_FLOOR = 0.9
#: (nprobe, rerank) points, cheapest first; the first to reach the
#: recall floor on the calibration queries is timed.
LADDER: Tuple[Tuple[int, int], ...] = (
    (1, 1000), (2, 1000), (1, 2000), (2, 2000), (4, 2000),
    (2, 4000), (4, 4000), (8, 4000), (8, 8000), (16, 8000),
)
SETUP_REPEATS = 3


def make_corpus(seed: int) -> np.ndarray:
    """Unit-norm Gaussian-mixture rows, float32, generated chunk-wise."""
    rng = np.random.default_rng([seed, 0])
    centers = rng.normal(size=(CLUSTERS, DIM))
    corpus = np.empty((ITEMS, DIM), dtype=np.float32)
    for start in range(0, ITEMS, CHUNK):
        count = min(CHUNK, ITEMS - start)
        rows = (centers[rng.integers(0, CLUSTERS, size=count)]
                + 0.5 * rng.normal(size=(count, DIM)))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        corpus[start:start + count] = rows
    return corpus


def make_queries(corpus: np.ndarray, n: int, stream: int,
                 seed: int) -> np.ndarray:
    """Perturbed corpus rows: queries with genuine near neighbours."""
    rng = np.random.default_rng([seed, stream])
    picks = rng.integers(0, corpus.shape[0], size=n)
    rows = corpus[picks].astype(np.float64) + 0.1 * rng.normal(size=(n, DIM))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def exact_top_k(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """Top-``K`` ids of the float oracle, one corpus chunk at a time.

    ``exact_search`` ranks each chunk; ``merge_topk`` folds the chunks
    together in ascending (negated similarity, id) order.
    """
    ids = values = None
    for start in range(0, corpus.shape[0], ORACLE_CHUNK):
        part_ids, sims = exact_search(
            queries, corpus[start:start + ORACLE_CHUNK], K, normalize=False)
        part_ids = part_ids + start
        if ids is None:
            ids, values = part_ids, -sims
        else:
            ids, values = merge_topk(ids, values, part_ids, -sims, K)
    return ids


def _ordered(ids: np.ndarray, dists: np.ndarray) -> bool:
    """Every row ascending by (distance, id)."""
    d0, d1 = dists[:, :-1], dists[:, 1:]
    return bool(np.all((d1 > d0) | ((d1 == d0) & (ids[:, 1:] > ids[:, :-1]))))


def _setup(corpus: np.ndarray, seed: int, recorder: Recorder = None):
    """Fit and fill the index; returns (index, fit_s, add_s)."""
    started = time.perf_counter()
    with maybe_span(recorder, "retrieval.fit"):
        index = IVFIndex.fit_binary(
            corpus[:TRAIN_SAMPLE], num_cells=NUM_CELLS, epochs=3,
            batch_size=2048, seed=seed, store_embeddings=True)
    fit_s = time.perf_counter() - started
    started = time.perf_counter()
    for start in range(0, ITEMS, CHUNK):
        with maybe_span(recorder, "retrieval.add", op=start // CHUNK):
            index.add(corpus[start:start + CHUNK])
    return index, fit_s, time.perf_counter() - started


def _calibrate(index: IVFIndex, queries: np.ndarray,
               oracle: np.ndarray) -> Tuple[Tuple[int, int], list]:
    tried = []
    for nprobe, rerank in LADDER:
        ids, _ = index.search(queries, K, nprobe=nprobe, rerank=rerank)
        recall = recall_at_k(ids, oracle, K)
        tried.append({"nprobe": nprobe, "rerank": rerank, "recall": recall})
        if recall >= RECALL_FLOOR:
            return (nprobe, rerank), tried
    return LADDER[-1], tried


def _wrap_search_stats(recorder: Recorder, index: IVFIndex) -> None:
    """Time ``index.search_stats``; its reported scan and rerank seconds
    become child spans placed at the end of the call, in that order."""
    original = index.search_stats

    def search_stats(*args, **kwargs):
        if not recorder.active:
            return original(*args, **kwargs)
        with recorder.span("index.search_stats") as span:
            result = original(*args, **kwargs)
        stats = result[2]
        parent = span.index
        rerank_start = span.end - stats["rerank_s"]
        recorder.add("retrieval.scan", rerank_start - stats["scan_s"],
                     rerank_start, parent=parent)
        recorder.add("retrieval.rerank", rerank_start, span.end,
                     parent=parent)
        span.info = {"cells_probed": stats["cells_probed"],
                     "shortlist": stats["shortlist"],
                     "scan_s": stats["scan_s"], "rerank_s": stats["rerank_s"]}
        return result

    index.search_stats = search_stats


class Window:
    """Closed-loop batches of ``BATCH`` queries for ``seconds``."""

    def __init__(self, service: RetrievalService, pool: np.ndarray,
                 point: Tuple[int, int], seconds: float,
                 recorder: Recorder = None) -> None:
        nprobe, rerank = point
        self.ids: List[np.ndarray] = []
        self.dists: List[np.ndarray] = []
        self.picks: List[np.ndarray] = []
        self.batch_ms: List[float] = []
        self.ends: List[float] = []
        batches = pool.shape[0] // BATCH
        start = time.perf_counter()
        deadline = start + seconds
        with maybe_span(recorder, "search.timed") as root:
            while time.perf_counter() < deadline:
                b = len(self.batch_ms)
                rows = np.arange(BATCH) + b % batches * BATCH
                began = time.perf_counter()
                with maybe_span(recorder, "retrieval.search_embeddings",
                                op=b):
                    ids, dists = service.search_embeddings(
                        pool[rows], K, nprobe=nprobe, rerank=rerank)
                self.ends.append(time.perf_counter())
                self.batch_ms.append((self.ends[-1] - began) * 1e3)
                self.ids.append(ids)
                self.dists.append(dists)
                self.picks.append(rows)
        self.root = root.index if root is not None else None
        self.start = start
        self.wall = time.perf_counter() - start
        self.queries = len(self.batch_ms) * BATCH


def _trace_layers(res: Result, recorder: Recorder, window: Window,
                  fit_s: float, add_s: float, overhead_pct: float) -> None:
    spans = recorder.spans
    inside = subtree(spans, window.root)
    batches = max(len(window.batch_ms), 1)
    calls = [spans[i] for i in inside
             if spans[i].name == "index.search_stats"]
    search_ms = [spans[i].duration * 1e3 for i in inside
                 if spans[i].name == "retrieval.search_embeddings"]
    rows = accounting(spans, window.root, residual="search.loop")
    per_batch = rows_ms(rows, batches)
    root_ms = spans[window.root].duration * 1e3
    add_ms = [s.duration * 1e3 for s in spans if s.name == "retrieval.add"]
    res.per_layer.update({
        "retrieval.search_ms.p50": percentile(search_ms, 50),
        "retrieval.search_ms.p99": percentile(search_ms, 99),
        "retrieval.scan_ms": per_batch.get("retrieval.scan", 0.0),
        "retrieval.rerank_ms": per_batch.get("retrieval.rerank", 0.0),
        "retrieval.service_ms": per_batch.get(
            "retrieval.search_embeddings", 0.0),
        "retrieval.cells_probed": (
            sum(c.info["cells_probed"] for c in calls)
            / max(window.queries, 1)),
        "retrieval.shortlist": calls[0].info["shortlist"] if calls else 0.0,
        "retrieval.add_ms": float(np.mean(add_ms)) if add_ms else 0.0,
        "retrieval.fit_s": fit_s,
        "retrieval.add_items_per_s": ITEMS / add_s,
        "residual.self_ms": per_batch["search.loop"],
        "trace.overhead_pct": overhead_pct,
    })
    res.record["accounting_ms_per_batch"] = {
        "operation": f"search.timed / batch of {BATCH}",
        "total": root_ms / batches, "rows": per_batch,
        "residual": "search.loop",
    }
    res.check("trace: one index.search_stats call per timed batch",
              len(calls) == len(window.batch_ms),
              f"calls={len(calls)} batches={len(window.batch_ms)}")
    overrun = [c for c in calls
               if c.info["scan_s"] + c.info["rerank_s"] > c.duration]
    res.check("trace: reported scan + rerank time fits inside each "
              "search_stats call", bool(calls) and not overrun,
              f"{len(overrun)} of {len(calls)} calls report more time "
              f"than they took")


def run(seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    corpus = make_corpus(seed)
    calibration = make_queries(corpus, CALIBRATION_QUERIES, 1, seed)
    pool = make_queries(corpus, TIMED_QUERIES, 2, seed)
    calibration_oracle = exact_top_k(calibration, corpus)
    pool_oracle = exact_top_k(pool, corpus)

    recorder = Recorder() if trace else None
    setups, fits, adds, index = [], [], [], None
    for _ in range(1 if trace else SETUP_REPEATS):
        index = None  # release the previous build before the next one
        index, fit_s, add_s = _setup(corpus, seed, recorder)
        setups.append(fit_s + add_s)
        fits.append(fit_s)
        adds.append(add_s)
    point, tried = _calibrate(index, calibration, calibration_oracle)
    service = RetrievalService(EmbeddingService(ModelRegistry(), "queries"),
                               index)

    windows = []
    if trace:
        _wrap_search_stats(recorder, index)
        recorder.active = False
        windows.append(Window(service, pool, point, seconds / 2))
        recorder.active = True
        windows.append(Window(service, pool, point, seconds / 2, recorder))
    else:
        windows.append(Window(service, pool, point, seconds))

    res.attempted = sum(len(w.batch_ms) for w in windows)
    res.check("traffic: a ladder point reaches the recall floor",
              tried[-1]["recall"] >= RECALL_FLOOR,
              f"chosen nprobe={point[0]} rerank={point[1]}")
    for window in windows:
        ids = np.concatenate(window.ids)
        dists = np.concatenate(window.dists)
        oracle = pool_oracle[np.concatenate(window.picks)]
        recall = recall_at_k(ids, oracle, K)
        res.check("output: timed recall@10 >= 0.9", recall >= RECALL_FLOOR,
                  f"recall@10={recall:.4f} over {ids.shape[0]} queries")
        res.check("output: rows ascend by (distance, id)",
                  ids.shape[1] == K and _ordered(ids, dists),
                  f"{ids.shape[0]} rows")
        window.recall = recall

    first = windows[0]
    qps = first.queries / first.wall
    res.end_to_end.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": qps,
        "latency_p50_ms": percentile(first.batch_ms, 50),
    })
    res.record.update({
        "search.qps": {"value": qps, "unit": "queries/s",
                       "n": first.queries},
        "sub_windows": {"qps": chunk_rates(first.start, first.ends, BATCH),
                        "batch_ms_p50": chunk_percentiles(first.batch_ms, 50)},
        "search.recall_at_10": {"value": first.recall, "unit": "fraction",
                                "n": first.queries},
        "search.add_items_per_s": {"value": ITEMS / statistics.median(adds),
                                   "unit": "items/s"},
        "batch_ms": {"p50": percentile(first.batch_ms, 50),
                     "p99": percentile(first.batch_ms, 99),
                     "n": len(first.batch_ms)},
        "ladder_point": {"nprobe": point[0], "rerank": point[1]},
        "ladder_tried": tried,
        "setup_s_runs": setups, "fit_s_runs": fits, "add_s_runs": adds,
        "items": ITEMS, "dim": DIM, "num_cells": NUM_CELLS, "batch": BATCH,
    })
    res.per_layer["retrieval.recall_at_10"] = first.recall
    if trace:
        untraced, traced = windows
        overhead = ((traced.wall / max(len(traced.batch_ms), 1))
                    / (untraced.wall / max(len(untraced.batch_ms), 1))
                    - 1.0) * 100
        _trace_layers(res, recorder, traced, fits[-1], adds[-1], overhead)
        res.recorder = recorder
    return res
