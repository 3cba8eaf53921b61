"""Repository benchmark: run one workload, print one JSON result line.

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads, metrics, units and bounds are listed in ``BENCHMARK.json``.
With ``--trace 0`` the result carries the end-to-end metrics of an
untraced run.  With ``--trace 1`` the run times an untraced and a traced
window, reports the per-layer metrics (a layer the workload does not
exercise reads 0) and the tracing overhead, and writes its spans to
``perfbench/runs/``.  Earlier lines of standard output hold the run
record: host, versions, the workload's own named metrics with their
sample counts, settings, traffic assertions and output checks.  The
exit code is 1 when a check fails, 2 when the program sources are
missing and 3 when the open-loop generator fell behind its schedule.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("train-paper", "train-replay", "serve-embed", "search-ivf")


def _run(workload: str, seed: int, seconds: float, trace: bool):
    if workload in ("train-paper", "train-replay"):
        from perfbench import train
        return train.run(seed, seconds, trace,
                         replay=workload == "train-replay")
    if workload == "serve-embed":
        from perfbench import serve
        return serve.run(seed, seconds, trace)
    from perfbench import search
    return search.run(seed, seconds, trace)


def _metrics(spec, values, absent=None):
    """Every metric ``spec`` lists, with its unit.

    ``absent`` fills a metric the workload did not produce (a layer it
    does not exercise); without it, a missing metric is an error.
    """
    names = [m["name"] for m in spec]
    unknown = sorted(set(values) - set(names))
    missing = [] if absent is not None else sorted(set(names) - set(values))
    if unknown or missing:
        raise KeyError(f"metrics not in BENCHMARK.json: {unknown}; "
                       f"metrics not measured: {missing}")
    return {m["name"]: {"value": float(values.get(m["name"], absent)),
                        "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # One BLAS thread on every workload, set before numpy loads: a second
    # spinning BLAS thread competes with the batcher and load generator on
    # serve-embed and makes every workload's timings depend on what else
    # runs on the host's other cores.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # The script's own directory would let perfbench modules shadow
    # top-level imports; the package is imported from the root instead.
    if sys.path and pathlib.Path(sys.path[0]).resolve() == ROOT / "perfbench":
        sys.path.pop(0)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import run_record
    from perfbench.serve import InvalidRun

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trace = bool(args.trace)
    try:
        result = _run(args.workload, args.seed, args.seconds, trace)
    except InvalidRun as exc:
        print(f"perfbench: INVALID run: {exc}", file=sys.stderr)
        return 3

    for name, ok, detail in result.checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    record = run_record(args.workload, args.seed, args.seconds, trace)
    record.update(result.record)
    if trace:
        out = ROOT / "perfbench" / "runs"
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}-spans.json"
        result.recorder.dump(path)
        record["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"record": record}, default=float))
    metrics = (_metrics(spec["per_layer"], result.per_layer, absent=0.0)
               if trace else _metrics(spec["end_to_end"], result.end_to_end))
    print(json.dumps({"correct": result.correct,
                      "attempted": int(result.attempted),
                      "failed": int(result.failed),
                      "metrics": metrics}), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
