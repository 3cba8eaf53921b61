"""Timers, spans, and the autograd op profiler (hook hygiene)."""

import numpy as np
import pytest

from repro.engine import ExecutionEngine, run_backward
from repro.nn.autograd import Function
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.telemetry import MetricsRegistry, OpProfiler, Timer, profile, span


def small_graph_step():
    """A tiny forward+backward touching matmul and elementwise ops."""
    a = Tensor(np.random.default_rng(0).normal(size=(4, 4)).astype(np.float32),
               requires_grad=True)
    b = Tensor(np.eye(4, dtype=np.float32), requires_grad=True)
    loss = ((a @ b) * 2.0).sum()
    loss.backward()
    return loss


class TestTimer:
    def test_context_manager_measures(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.elapsed > 0
        assert not timer.running

    def test_accumulates_across_cycles(self):
        timer = Timer()
        timer.start()
        first = timer.stop()
        timer.start()
        second = timer.stop()
        assert second >= first

    def test_double_start_rejected(self):
        timer = Timer().start()
        with pytest.raises(RuntimeError, match="already running"):
            timer.start()

    def test_stop_before_start_rejected(self):
        with pytest.raises(RuntimeError, match="before start"):
            Timer().stop()

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0


class TestSpan:
    def test_yields_timer(self):
        with span("region") as timer:
            pass
        assert timer.elapsed >= 0

    def test_records_histogram_sample(self):
        registry = MetricsRegistry()
        for _ in range(3):
            with span("epoch", registry):
                pass
        hist = registry.histogram("span_seconds", name="epoch")
        assert hist.count == 3

    def test_records_even_on_error(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with span("epoch", registry):
                raise ValueError("boom")
        assert registry.histogram("span_seconds", name="epoch").count == 1


class TestProfile:
    def test_collects_forward_and_backward(self):
        with profile() as prof:
            small_graph_step()
        assert prof.stats
        matmul = prof.stats.get("MatMul")
        assert matmul is not None
        assert matmul.calls >= 1
        assert matmul.forward_seconds > 0
        assert matmul.backward_calls >= 1
        assert matmul.backward_seconds > 0
        assert matmul.category == "matmul"

    def test_apply_restored_after_block(self):
        original = Function.__dict__["apply"]
        with profile():
            small_graph_step()
        assert Function.__dict__["apply"] is original

    def test_apply_restored_on_exception(self):
        original = Function.__dict__["apply"]
        with pytest.raises(RuntimeError, match="boom"):
            with profile():
                raise RuntimeError("boom")
        assert Function.__dict__["apply"] is original

    def test_no_stats_leak_outside_block(self):
        with profile() as prof:
            small_graph_step()
        calls_inside = prof.stats["MatMul"].calls
        small_graph_step()  # outside: must not be recorded
        assert prof.stats["MatMul"].calls == calls_inside

    def test_plan_traced_in_block_feeds_no_stats_after_exit(self):
        # The trace step runs inside the block, so its ops carry the
        # profiler's backward shim; replays after the block must not.
        w = Parameter(np.eye(4, dtype=np.float32))
        x = Tensor(np.ones((2, 4), dtype=np.float32))
        engine = ExecutionEngine(training=True)

        def step():
            loss = ((x @ w) * 2.0).sum()
            run_backward(loss)
            return loss, {}

        def snapshot(prof):
            return {name: s.as_dict() for name, s in prof.stats.items()}

        with profile() as prof:
            engine.execute("step", {"x": x}, None, step)
        held = snapshot(prof)
        assert held["MatMul"]["backward_calls"] == 1
        for _ in range(3):
            assert engine.execute("step", {"x": x}, None, step).replayed
        assert snapshot(prof) == held

    def test_nested_install_rejected(self):
        with profile():
            with pytest.raises(RuntimeError, match="already"):
                with profile():
                    pass

    def test_reinstall_same_profiler_rejected(self):
        profiler = OpProfiler()
        profiler.install()
        try:
            with pytest.raises(RuntimeError, match="already installed"):
                profiler.install()
        finally:
            profiler.uninstall()
        assert not profiler.installed

    def test_uninstall_idempotent(self):
        profiler = OpProfiler()
        profiler.install()
        profiler.uninstall()
        profiler.uninstall()  # no-op, no error
        assert Function.__dict__["apply"].__func__ is not None

    def test_results_identical_under_profiler(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4)).astype(np.float32)
        a1 = Tensor(x.copy(), requires_grad=True)
        loss1 = (a1 * a1).sum()
        loss1.backward()
        with profile():
            a2 = Tensor(x.copy(), requires_grad=True)
            loss2 = (a2 * a2).sum()
            loss2.backward()
        np.testing.assert_allclose(loss1.data, loss2.data)
        np.testing.assert_allclose(a1.grad, a2.grad)


class TestReporting:
    def test_top_sorting_and_limit(self):
        with profile() as prof:
            small_graph_step()
        top2 = prof.top(2)
        assert len(top2) == 2
        assert top2[0].total_seconds >= top2[1].total_seconds
        with pytest.raises(ValueError, match="unknown sort key"):
            prof.top(by="nonsense")

    def test_by_category_totals(self):
        with profile() as prof:
            small_graph_step()
        categories = prof.by_category()
        assert "matmul" in categories
        total = sum(categories.values())
        assert total == pytest.approx(
            sum(s.total_seconds for s in prof.stats.values())
        )

    def test_format_table_and_summary(self):
        with profile() as prof:
            small_graph_step()
        table = prof.format_table(n=3)
        assert "MatMul" in table or "Mul" in table
        summary = prof.summary()
        assert set(summary) == {"ops", "categories"}
        assert all("total_seconds" in op for op in summary["ops"])
