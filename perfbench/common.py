"""Result type, percentiles and the run record shared by the workloads."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Result", "percentile", "chunk_percentiles", "chunk_rates",
           "peak_rss_mb", "wrap_engine", "durations_ms", "rows_ms",
           "run_record"]


class Result:
    """What one workload run hands back to ``run.py``.

    ``end_to_end`` and ``per_layer`` map metric names to values; the
    units live in ``BENCHMARK.json``.  ``record`` carries the workload's
    own named metrics, sample counts and settings, printed beside the
    result so a number from another host or config is recognisable.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: List[Tuple[str, bool, str]] = []
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.record: Dict[str, object] = {}
        self.recorder = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def percentile(values: Sequence[float], q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


#: consecutive sub-windows a timed window is split into for the record,
#: so a slowdown inside one run shows beside its whole-window figures.
CHUNKS = 5


def chunk_percentiles(values: Sequence[float], q: float) -> List[float]:
    """``q``-th percentile of each of ``CHUNKS`` consecutive runs of
    ``values`` (in time order)."""
    parts = np.array_split(np.asarray(values, dtype=np.float64), CHUNKS)
    return [float(np.percentile(part, q)) for part in parts if part.size]


def chunk_rates(start: float, ends: Sequence[float],
                per_event: float) -> List[float]:
    """Rate of each of ``CHUNKS`` consecutive runs of events.

    ``ends`` are event completion times in order; each run's rate is its
    events times ``per_event`` over the wall time from the previous run's
    last event (or ``start``) to its own, so the runs tile the window.
    """
    edges = np.concatenate([[start], np.asarray(ends, dtype=np.float64)])
    bounds = np.linspace(0, len(ends), CHUNKS + 1).round().astype(int)
    return [(b - a) * per_event / (edges[b] - edges[a])
            for a, b in zip(bounds, bounds[1:]) if b > a]


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> Optional[int]:
    """OpenBLAS thread count from the library numpy loaded, if found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def wrap_engine(recorder, engine) -> None:
    """Time ``engine.execute`` calls as ``engine.execute`` spans.

    Each span's info says how the call ran — ``"trace"`` when it traced
    and compiled a plan, else the engine's ``executed`` path (``"replay"``
    or ``"eager"``) — and how many rows its first input carried.
    """
    original = engine.execute

    def execute(signature, inputs, symbols, eager_fn):
        if not recorder.active:
            return original(signature, inputs, symbols, eager_fn)
        misses = engine.stats()["plan_misses"]
        with recorder.span("engine.execute") as span:
            result = original(signature, inputs, symbols, eager_fn)
        traced = engine.stats()["plan_misses"] != misses
        span.info = {"path": "trace" if traced else result.executed,
                     "rows": int(next(iter(inputs.values())).shape[0])}
        return result

    engine.execute = execute


def durations_ms(spans, indices, name: str) -> List[float]:
    return [spans[i].duration * 1e3 for i in indices if spans[i].name == name]


def rows_ms(rows: Dict[str, float], per: int) -> Dict[str, float]:
    """Accounting rows (seconds in total) as milliseconds per operation."""
    return {name: seconds * 1e3 / max(per, 1) for name, seconds in rows.items()}


def run_record(workload: str, seed: int, seconds: float,
               trace: bool) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "blas_env": {key: os.environ[key] for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS") if key in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
