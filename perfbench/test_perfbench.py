"""Tests of the benchmark's own machinery (no program code involved).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from perfbench.loadgen import poisson_schedule, run_open_loop, run_window
from perfbench.spans import Recorder, Span, accounting, self_times, subtree


def _spans(rows):
    return [Span(name, start, end, parent, None)
            for name, start, end, parent in rows]


def test_self_time_subtracts_the_union_of_children():
    spans = _spans([
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b1", 6.0, 8.0, 3),   # b1 and b2 overlap: the union is 2.5
        ("b2", 7.0, 8.5, 3),
        ("c", 9.5, 11.0, 0),   # runs past the root: only 0.5 counts there
    ])
    assert self_times(spans) == pytest.approx(
        [2.5, 2.0, 1.0, 1.5, 2.0, 1.5, 1.5])


def test_accounting_rows_add_up_to_the_root_with_a_named_residual():
    spans = _spans([
        ("other", 0.0, 20.0, None),
        ("root", 0.0, 10.0, None),
        ("layer", 1.0, 4.0, 1),
        ("layer", 5.0, 6.0, 1),
        ("inner", 2.0, 3.0, 2),
    ])
    assert subtree(spans, 1) == [1, 2, 3, 4]
    rows = accounting(spans, 1, residual="loop")
    assert rows == pytest.approx({"loop": 6.0, "layer": 3.0, "inner": 1.0})
    assert sum(rows.values()) == pytest.approx(10.0)


def test_recorder_parents_follow_each_threads_own_stack():
    ticks = iter(float(i) for i in range(100))
    recorder = Recorder(clock=lambda: next(ticks))
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            worker = threading.Thread(
                target=lambda: recorder.add("elsewhere", 0.0, 1.0))
            worker.start()
            worker.join(5)
        assert not worker.is_alive()
    assert inner.parent == outer.index
    assert outer.parent is None
    assert recorder.spans[2].parent is None


def test_wrapped_method_records_only_while_active():
    class Engine:
        def execute(self, x):
            return x + 1

    engine = Engine()
    recorder = Recorder()
    recorder.wrap(engine, "execute", "engine.execute")
    recorder.active = False
    assert engine.execute(1) == 2
    recorder.active = True
    assert engine.execute(2) == 3
    assert [s.name for s in recorder.spans] == ["engine.execute"]


def test_poisson_schedule_is_reproducible_from_its_seed():
    first = poisson_schedule(500.0, 2.0, seed=7)
    again = poisson_schedule(500.0, 2.0, seed=7)
    other = poisson_schedule(500.0, 2.0, seed=8)
    assert np.array_equal(first, again)
    assert not np.array_equal(first[:50], other[:50])
    assert np.all(np.diff(first) > 0) and first[-1] < 2.0
    assert abs(first.size - 1000) < 5 * np.sqrt(1000)


class _Done:
    def __init__(self, value=None, error=None):
        self.value, self.error = value, error

    def result(self, timeout=None):
        if self.error is not None:
            raise self.error
        return self.value


def test_open_loop_latency_counts_from_the_due_time_through_a_stall():
    stall_s = 0.05
    offsets = np.array([0.0, 0.01, 0.02, 0.03])

    def submit(x):
        if x == 0:
            time.sleep(stall_s)   # the sender stalls on the first request
        if x == 3:
            return _Done(error=RuntimeError("refused"))
        return _Done(np.array([x]))

    result = run_open_loop(submit, [0, 1, 2, 3], offsets, timeout=1.0,
                           keep=[1])
    assert list(result.failed) == [False, False, False, True]
    # Requests 1 and 2 were due during the stall: their latency includes
    # the time they waited to be sent, which a sent-time clock hides.
    for i in (1, 2):
        waited_ms = (stall_s - offsets[i]) * 1e3
        assert result.lag_ms[i] >= waited_ms - 1.0
        assert result.latency_ms[i] >= waited_ms - 1.0
        sent_based = (result.seen[i] - result.sent[i]) * 1e3
        assert result.latency_ms[i] - sent_based == pytest.approx(
            result.lag_ms[i])
    assert result.latency_ms.size == 3
    assert np.array_equal(result.outputs[1], [1])


def test_window_keeps_requests_outstanding_and_counts_failures():
    calls = []

    def submit(x):
        calls.append(x)
        return _Done(error=ValueError("bad")) if len(calls) % 5 == 0 \
            else _Done(x)

    out = run_window(submit, [0, 1, 2], window=4, duration=0.05,
                     timeout=1.0)
    assert out["attempted"] == len(calls)
    assert out["completed"] + out["failed"] == out["attempted"]
    assert out["failed"] == len(calls) // 5
    assert out["rate"] > 0
