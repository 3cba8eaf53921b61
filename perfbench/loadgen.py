"""Open-loop and fixed-window load for the embedding service.

Phase 1 (open loop) sends requests on a seeded Poisson schedule whatever
the service does, so a stall queues later requests instead of slowing
the sender (no coordinated omission).  One thread submits on schedule
and a second collects results in order; each latency is measured from
the request's *due* time, and how late the sender ran is reported as
lag.  Phase 2 keeps ``window`` requests outstanding from one thread and
counts completions per second.
"""

from __future__ import annotations

import collections
import queue
import threading
import time
from typing import Callable, Dict, Optional, Sequence

import numpy as np

__all__ = ["poisson_schedule", "OpenLoopResult", "run_open_loop",
           "run_window"]

#: waits longer than this sleep; shorter ones yield the GIL and re-check.
_SPIN_S = 2e-4
#: the first request is due this long after the phase starts.
_LEAD_S = 0.02


def poisson_schedule(rate: float, duration: float, seed: int) -> np.ndarray:
    """Due offsets (seconds from the start) of a Poisson stream.

    Gaps are exponential with mean ``1 / rate``; the same seed gives the
    same schedule.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError(f"rate and duration must be > 0, got {rate}, "
                         f"{duration}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 64)
    offsets = np.cumsum(gaps)
    while offsets[-1] < duration:
        more = rng.exponential(1.0 / rate, size=offsets.size)
        offsets = np.concatenate([offsets, offsets[-1] + np.cumsum(more)])
    return offsets[offsets < duration]


def _wait_until(due: float) -> None:
    while True:
        remaining = due - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(remaining - _SPIN_S if remaining > 2 * _SPIN_S else 0)


class OpenLoopResult:
    """Per-request timestamps of one open-loop phase (``perf_counter``).

    ``due`` is when each request was scheduled, ``sent``/``submitted``
    bracket the ``submit`` call, and ``seen`` is when the collector held
    the result (NaN for a request that failed).
    """

    def __init__(self, due: np.ndarray) -> None:
        n = due.size
        self.due = due
        self.sent = np.full(n, np.nan)
        self.submitted = np.full(n, np.nan)
        self.seen = np.full(n, np.nan)
        self.failed = np.zeros(n, dtype=bool)
        self.outputs: Dict[int, np.ndarray] = {}
        self.backlog_max = 0

    @property
    def latency_ms(self) -> np.ndarray:
        """Due time to result, for the requests that succeeded."""
        ok = ~self.failed
        return (self.seen[ok] - self.due[ok]) * 1e3

    @property
    def lag_ms(self) -> np.ndarray:
        """How late each submit started against its due time."""
        return (self.sent - self.due) * 1e3


def run_open_loop(submit: Callable, payloads: Sequence[np.ndarray],
                  offsets: np.ndarray, *, timeout: float,
                  pending: Optional[Callable[[], int]] = None,
                  keep: Sequence[int] = ()) -> OpenLoopResult:
    """Submit ``payloads[i]`` at ``start + offsets[i]``; collect in order.

    ``submit(x)`` returns a future with ``result(timeout)``; a request
    that raises on submit or on ``result`` counts as failed.  Outputs of
    the request indices in ``keep`` are retained for output checks.
    ``pending()`` is sampled after each submit for the backlog maximum.
    """
    start = time.perf_counter() + _LEAD_S
    result = OpenLoopResult(start + np.asarray(offsets, dtype=np.float64))
    keep = set(int(i) for i in keep)
    inbox: "queue.SimpleQueue" = queue.SimpleQueue()

    def collect() -> None:
        while True:
            item = inbox.get()
            if item is None:
                return
            index, future = item
            try:
                value = future.result(timeout)
            except Exception:
                result.failed[index] = True
                continue
            result.seen[index] = time.perf_counter()
            if index in keep:
                result.outputs[index] = np.array(value, copy=True)

    collector = threading.Thread(target=collect, name="perfbench-collect",
                                 daemon=True)
    collector.start()
    try:
        for index, due in enumerate(result.due):
            _wait_until(due)
            result.sent[index] = time.perf_counter()
            try:
                future = submit(payloads[index])
            except Exception:
                result.failed[index] = True
                continue
            finally:
                result.submitted[index] = time.perf_counter()
            inbox.put((index, future))
            if pending is not None:
                result.backlog_max = max(result.backlog_max, pending())
    finally:
        inbox.put(None)
        collector.join(timeout + 5.0)
    if collector.is_alive():
        raise RuntimeError("open-loop collector did not finish")
    return result


def run_window(submit: Callable, payloads: Sequence[np.ndarray],
               window: int, duration: float, *,
               timeout: float) -> Dict[str, float]:
    """Keep ``window`` requests outstanding for ``duration`` seconds.

    Returns completions, failures, attempts, the completion rate over the
    measured interval and the time of each completion in it (``done_at``);
    requests still in flight at the end are drained and counted, but not
    in the rate.
    """
    inflight: "collections.deque" = collections.deque()
    done_at = []
    attempted = completed = failed = 0
    start = time.perf_counter()
    end = start + duration
    while True:
        while len(inflight) < window:
            payload = payloads[attempted % len(payloads)]
            attempted += 1
            try:
                inflight.append(submit(payload))
            except Exception:
                failed += 1
                break
        if inflight:
            try:
                inflight.popleft().result(timeout)
                completed += 1
                done_at.append(time.perf_counter())
            except Exception:
                failed += 1
        if time.perf_counter() >= end:
            break
    elapsed = time.perf_counter() - start
    rate = completed / elapsed
    while inflight:
        try:
            inflight.popleft().result(timeout)
            completed += 1
        except Exception:
            failed += 1
    return {"attempted": attempted, "failed": failed,
            "completed": completed, "elapsed_s": elapsed, "rate": rate,
            "start": start, "done_at": done_at}
