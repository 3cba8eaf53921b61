"""Process-parallel executor for independent experiment jobs.

A sweep is a list of :class:`SweepJob` entries — each a picklable
module-level callable plus kwargs (table rows, precision-set ablations,
multi-seed repeats).  :class:`SweepExecutor` runs them across a bounded
pool and returns a :class:`SweepResult` of structured per-job outcomes:

- **Crash isolation** — an exception inside a job is caught *in the
  worker* and comes back as a ``JobResult`` carrying the error type,
  message, and traceback text; the sweep keeps running.  Only a
  hard-killed worker (segfault, OOM kill) breaks the pool, and even then
  the affected jobs report structured ``BrokenProcessPool`` errors
  instead of raising out of the sweep.
- **Per-job telemetry** — with ``telemetry_root`` set, every job gets
  its own subdirectory injected as a ``telemetry_dir`` kwarg, so JSONL
  run logs from parallel jobs never interleave.
- **Merged results** — ``SweepResult.format_table()`` renders one
  aligned status table; ``values()`` collects successful payloads keyed
  by job name.

Backends: ``"process"`` (fork start method; the default where
available), ``"thread"``, and ``"serial"`` (inline, for debugging and
platforms without fork — also what ``"auto"`` degrades to for a single
worker).  Each process worker pins OpenBLAS to one thread, so N workers
run N BLAS threads rather than N times the default (which oversubscribes
the cores the workers already split); a numpy without the OpenBLAS setter
warns once and keeps the default.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import pathlib
import re
import time
import traceback
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Union

from .blas import blas_thread_setter

__all__ = ["SweepJob", "JobResult", "SweepResult", "SweepExecutor"]


def _job_slug(name: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-").lower()
    return slug or "job"


@dataclasses.dataclass
class SweepJob:
    """One unit of sweep work.

    ``fn`` must be importable from the module namespace (a top-level
    function) so the process backend can pickle it; ``kwargs`` must be
    picklable for the same reason.
    """

    name: str
    fn: Callable
    kwargs: Dict[str, object] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class JobResult:
    """Structured outcome of one job — success payload or error report."""

    name: str
    ok: bool
    value: object = None
    error_type: Optional[str] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    seconds: float = 0.0
    telemetry_dir: Optional[str] = None

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return f"{self.error_type}: {self.error}"


class SweepResult:
    """All job outcomes of one sweep, in submission order."""

    def __init__(self, results: List[JobResult], elapsed_seconds: float,
                 backend: str) -> None:
        self.results = results
        self.elapsed_seconds = elapsed_seconds
        self.backend = backend

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> List[JobResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    def values(self) -> Dict[str, object]:
        """Successful payloads keyed by job name."""
        return {r.name: r.value for r in self.results if r.ok}

    def raise_failures(self) -> "SweepResult":
        """Raise a summary error if any job failed; else return self."""
        if self.failed:
            details = "; ".join(
                f"{r.name} ({r.error_type}: {r.error})" for r in self.failed
            )
            raise RuntimeError(
                f"{len(self.failed)}/{len(self.results)} sweep jobs "
                f"failed: {details}"
            )
        return self

    def format_table(self, title: str = "") -> str:
        """Merged status table (aligned text, one row per job)."""
        from ..experiments.tables import format_table

        rows = [
            [r.name, "ok" if r.ok else "FAILED", f"{r.seconds:.2f}s",
             "" if r.ok else f"{r.error_type}: {r.error}"]
            for r in self.results
        ]
        return format_table(["Job", "Status", "Time", "Error"], rows,
                            title=title)


def _one_blas_thread() -> None:
    """Process-pool initializer: this worker runs OpenBLAS on one thread."""
    setter = blas_thread_setter()
    if setter is not None:
        setter(1)


def _run_job_isolated(fn: Callable, kwargs: Dict[str, object]) -> Dict[str, object]:
    """Execute one job, catching its failure *inside* the worker."""
    start = time.perf_counter()
    try:
        value = fn(**kwargs)
        return {
            "ok": True,
            "value": value,
            "seconds": time.perf_counter() - start,
        }
    except Exception as exc:  # crash isolation: report, don't propagate
        return {
            "ok": False,
            "error_type": type(exc).__name__,
            "error": str(exc),
            "traceback": traceback.format_exc(),
            "seconds": time.perf_counter() - start,
        }


class SweepExecutor:
    """Run independent jobs across a bounded worker pool."""

    def __init__(
        self,
        max_workers: int = 2,
        backend: str = "auto",
        telemetry_root: Optional[Union[str, pathlib.Path]] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if backend not in ("auto", "process", "thread", "serial"):
            raise ValueError(
                f"backend must be auto/process/thread/serial, got {backend!r}"
            )
        if backend == "auto":
            if max_workers == 1:
                backend = "serial"
            elif "fork" in multiprocessing.get_all_start_methods():
                backend = "process"
            else:
                backend = "thread"
        if (backend == "process"
                and "fork" not in multiprocessing.get_all_start_methods()):
            raise ValueError(
                "process backend needs the fork start method; pass "
                "backend='auto' for the thread fallback"
            )
        self.max_workers = max_workers
        self.backend = backend
        self.telemetry_root = (
            None if telemetry_root is None else pathlib.Path(telemetry_root)
        )

    def _prepare(self, job: SweepJob) -> Dict[str, object]:
        kwargs = dict(job.kwargs)
        telemetry_dir = None
        if self.telemetry_root is not None and "telemetry_dir" not in kwargs:
            telemetry_dir = self.telemetry_root / _job_slug(job.name)
            telemetry_dir.mkdir(parents=True, exist_ok=True)
            kwargs["telemetry_dir"] = str(telemetry_dir)
        elif "telemetry_dir" in kwargs:
            telemetry_dir = kwargs["telemetry_dir"]
        return {
            "kwargs": kwargs,
            "telemetry_dir": None if telemetry_dir is None
            else str(telemetry_dir),
        }

    def _make_executor(self) -> concurrent.futures.Executor:
        if self.backend == "process":
            if blas_thread_setter() is None:
                # Issued from this one line, so the default filter shows
                # it once per process.
                warnings.warn(
                    "numpy's OpenBLAS exports no set_num_threads symbol; "
                    "sweep workers keep the default BLAS thread count",
                    RuntimeWarning,
                )
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_one_blas_thread,
            )
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="sweep"
        )

    def run(self, jobs: Sequence[SweepJob]) -> SweepResult:
        """Execute ``jobs``; never raises for in-job failures."""
        start = time.perf_counter()
        prepared = [self._prepare(job) for job in jobs]
        if self.backend == "serial":
            payloads = [
                _run_job_isolated(job.fn, prep["kwargs"])
                for job, prep in zip(jobs, prepared)
            ]
        else:
            with self._make_executor() as executor:
                futures = [
                    executor.submit(_run_job_isolated, job.fn, prep["kwargs"])
                    for job, prep in zip(jobs, prepared)
                ]
                payloads = []
                for future in futures:
                    try:
                        payloads.append(future.result())
                    except Exception as exc:
                        # A hard-killed worker (BrokenProcessPool) or a
                        # submission pickling error: still a structured
                        # report, never a dead sweep.
                        payloads.append({
                            "ok": False,
                            "error_type": type(exc).__name__,
                            "error": str(exc),
                            "traceback": traceback.format_exc(),
                            "seconds": 0.0,
                        })
        results = [
            JobResult(name=job.name, telemetry_dir=prep["telemetry_dir"],
                      **payload)
            for job, prep, payload in zip(jobs, prepared, payloads)
        ]
        return SweepResult(results, time.perf_counter() - start,
                           backend=self.backend)
