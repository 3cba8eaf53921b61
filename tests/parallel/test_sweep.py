"""Sweep executor tests: crash isolation, telemetry dirs, merged table."""

import pathlib

import pytest

from repro.parallel import SweepExecutor, SweepJob, available_backends
from repro.parallel import sweep as sweep_module
from repro.parallel.blas import blas_thread_setter, blas_threads

needs_fork = pytest.mark.skipif(
    "fork" not in available_backends(), reason="process backend needs fork"
)


# Module-level so the process backend can pickle them.
def double(x, telemetry_dir=None):
    return x * 2


def record_dir(telemetry_dir=None):
    return telemetry_dir


def explode(telemetry_dir=None):
    raise RuntimeError("boom")


def worker_blas_threads(telemetry_dir=None):
    return blas_threads()


def three_jobs():
    return [
        SweepJob("job a", double, {"x": 21}),
        SweepJob("job b", explode),
        SweepJob("job c", double, {"x": 1}),
    ]


class TestCrashIsolation:
    @pytest.mark.parametrize("backend", ["serial", "thread", "auto"])
    def test_failed_job_does_not_kill_sweep(self, backend):
        result = SweepExecutor(max_workers=2, backend=backend).run(
            three_jobs()
        )
        assert [r.name for r in result.ok] == ["job a", "job c"]
        assert [r.name for r in result.failed] == ["job b"]
        assert result.values() == {"job a": 42, "job c": 2}

    def test_failure_report_is_structured(self):
        result = SweepExecutor(max_workers=2).run(three_jobs())
        report = result.failed[0]
        assert report.error_type == "RuntimeError"
        assert report.error == "boom"
        assert "explode" in report.traceback
        assert report.summary() == "RuntimeError: boom"

    def test_raise_failures_collects_all_reports(self):
        result = SweepExecutor(max_workers=2).run(three_jobs())
        with pytest.raises(RuntimeError, match=r"1/3.*job b.*boom"):
            result.raise_failures()

    def test_raise_failures_passthrough_when_clean(self):
        result = SweepExecutor(max_workers=2).run(
            [SweepJob("only", double, {"x": 2})]
        )
        assert result.raise_failures() is result


class TestTelemetryDirs:
    def test_each_job_gets_own_subdirectory(self, tmp_path):
        executor = SweepExecutor(max_workers=2, telemetry_root=tmp_path)
        result = executor.run([
            SweepJob("CQ-C (2-8)", record_dir),
            SweepJob("SimCLR", record_dir),
        ])
        dirs = [r.value for r in result]
        assert dirs == [str(tmp_path / "cq-c-2-8"), str(tmp_path / "simclr")]
        for directory in dirs:
            assert pathlib.Path(directory).is_dir()
        assert [r.telemetry_dir for r in result] == dirs

    def test_explicit_telemetry_dir_wins(self, tmp_path):
        executor = SweepExecutor(max_workers=2, telemetry_root=tmp_path)
        result = executor.run([
            SweepJob("pinned", record_dir,
                     {"telemetry_dir": str(tmp_path / "elsewhere")}),
        ])
        assert result.results[0].value == str(tmp_path / "elsewhere")

    def test_no_root_means_no_injection(self):
        result = SweepExecutor(max_workers=2, backend="serial").run(
            [SweepJob("bare", record_dir)]
        )
        assert result.results[0].value is None
        assert result.results[0].telemetry_dir is None


class TestMergedTable:
    def test_format_table_lists_every_job(self):
        result = SweepExecutor(max_workers=2).run(three_jobs())
        table = result.format_table(title="sweep")
        assert "sweep" in table
        for row in ("job a", "job b", "job c"):
            assert row in table
        assert "FAILED" in table and "RuntimeError: boom" in table

    def test_results_follow_submission_order(self):
        result = SweepExecutor(max_workers=2).run(three_jobs())
        assert [r.name for r in result] == ["job a", "job b", "job c"]
        assert len(result) == 3


class TestValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="max_workers"):
            SweepExecutor(max_workers=0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            SweepExecutor(backend="mpi")

    def test_auto_single_worker_is_serial(self):
        assert SweepExecutor(max_workers=1).backend == "serial"


@needs_fork
class TestBlasThreads:
    def test_process_workers_run_one_blas_thread(self):
        setter = blas_thread_setter()
        before = blas_threads()
        if setter is None or before is None:
            pytest.skip("numpy's OpenBLAS exports no thread getter/setter")
        setter(2)  # workers fork from a parent with more than one
        try:
            result = SweepExecutor(max_workers=2, backend="process").run(
                [SweepJob(f"job {i}", worker_blas_threads) for i in range(2)]
            )
        finally:
            setter(before)
        assert result.raise_failures().values() == {"job 0": 1, "job 1": 1}

    def test_missing_setter_warns_and_still_runs(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "blas_thread_setter", lambda: None)
        with pytest.warns(RuntimeWarning, match="set_num_threads"):
            result = SweepExecutor(max_workers=2, backend="process").run(
                [SweepJob("job", double, {"x": 4})]
            )
        assert result.raise_failures().values() == {"job": 8}
