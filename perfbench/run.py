"""starangles benchmark: one workload, one seed, one result line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload lattice_s4 --seed 1 --seconds 30 --trace 0

The seed draws the Haar-random unitary that conjugates the whole tower.
The run repeats the workload from scratch until ``--seconds`` have
passed, checks every angle it computes, and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from spans
with ``--trace 1``. A line before it holds the run's metadata. Traced runs
also write their spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREADS = len(os.sched_getaffinity(0))

# an untraced run makes at least MIN_REPS reps. Every untraced rep times
# at least REP_ANGLE_SAMPLES angles, so that its p97 has more than ten
# samples beyond it; the run reports the median over reps
MIN_REPS = 3
REP_ANGLE_SAMPLES = 400

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "angle_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# spans whose self time is reported as the per-layer metric "<span>_s"
LAYER_SPANS = (
    "groups.enumerate",
    "algebra.build",
    "expectation.trace_preserving",
    "expectation.make_compatible",
    "pimsner.restricted_basis",
    "pimsner.watatani_index",
    "basic.build",
    "basic.dual_expectation",
    "basic.jones_projection",
    "basic.upper_build",
    "basic.upper_dual",
    "angle.first_floor",
)


def _load_library():
    """Import numpy and the checkout's own ``src/starangles``, nothing else,
    with BLAS pinned to the usable cores."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    if not (SRC / "starangles" / "__init__.py").is_file():
        sys.exit(f"benchmark: no library sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import starangles

    if Path(starangles.__file__).resolve().parent != SRC / "starangles":
        sys.exit(f"benchmark: imported starangles from {starangles.__file__}, not {SRC}")


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, dims: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "usable_cores": THREADS,
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"), "threads": THREADS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "src_lines": src_lines,
        "dims": dims,
    }


def _metric(value: float, unit: str) -> dict:
    value = float(value)  # NaN when every angle raised: no latency to report
    return {"value": None if math.isnan(value) else value, "unit": unit}


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the run's metadata."""
    import harness

    work = harness.WORKLOADS[args.workload]
    unitary = harness.haar_unitary(harness.ambient_dim(work), args.seed)
    expected = harness.expected_cosines(work)
    tracer = harness.Tracer() if args.trace else harness.NullTracer()
    null = harness.NullTracer()

    # repeat the whole workload from scratch. A traced run alternates
    # traced and untraced reps, traced first, for at least two pairs: the
    # first rep also pays the process's warm-up, so it gives only the RSS
    # marks, and the later traced reps give the layer times and overhead
    reps, traced_ids = [], []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        if reps:
            reps[-1].release()
        gc.collect()
        if traced:
            tracer.run_id = len(reps)
            traced_ids.append(tracer.run_id)
        rep = harness.run_rep(work, unitary, expected, tracer if traced else null)
        reps.append(rep)
        while not traced and len(rep.angle_ms) < REP_ANGLE_SAMPLES:
            more = rep.angle_pass(null)  # on warm caches
            if not more:
                break  # every angle raised, and each counted as failed
            rep.angle_ms += more
        if time.perf_counter() - started >= args.seconds and (
            len(reps) >= 4 and len(reps) % 2 == 0 if args.trace else len(reps) >= MIN_REPS
        ):
            break

    # a traced run times each route on its own, on the last rep's warm caches
    route_ms: dict[str, list[float]] = {}
    if args.trace:
        tracer.run_id = len(reps)
        for path in ("quasibasis", "definition"):
            route_ms[path] = rep.angle_pass(tracer, path)
    failed = sum(r.failed for r in reps)

    dims = rep.dims()
    dims["angle_samples"] = sum(len(r.angle_ms) for r in reps)
    meta = metadata(args, dims)
    meta["reps"] = [{"wall_s": r.wall_s, "setup_s": r.setup_s} for r in reps]
    meta["failures"] = [line for r in reps for line in r.failures]

    if args.trace:
        metrics = layer_metrics(tracer, reps, traced_ids, route_ms, dims)
        name = f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(OUT_DIR / name, meta)
    else:
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in reps),
            "setup_s": statistics.median(r.setup_s for r in reps),
            "angle_ms_p50": statistics.median(harness.percentile(r.angle_ms, 50) for r in reps),
            "peak_rss_mb": harness.rss_high_water_mb(),
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in reps),
        "failed": failed,
        "metrics": metrics,
    }
    return result, meta


def layer_metrics(tracer, reps, traced_ids, route_ms, dims) -> dict:
    import harness

    first, *later = traced_ids
    per_rep = [harness.self_times(tracer.of_run(i)) for i in later]

    def median_of(span_name: str) -> float:
        return statistics.median(t.get(span_name, 0.0) for t in per_rep)

    def rss_after(span_name: str) -> float:
        marks = [s.rss_mb for _, s in tracer.of_run(first) if s.name == span_name]
        return max(marks) if marks else 0.0

    untraced = [r for i, r in enumerate(reps) if i not in traced_ids]
    traced_wall = statistics.median(reps[i].wall_s for i in later)
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    out = {span + "_s": _metric(median_of(span), "s") for span in LAYER_SPANS}
    out.update(
        {
            "expectation.make_compatible_calls": _metric(dims["intermediates"], "count"),
            "pimsner.module_size": _metric(dims["module_size"], "count"),
            "basic.dim_m1": _metric(dims["dim_m1"], "count"),
            "basic.span_columns": _metric(dims["span_columns"], "count"),
            "basic.upper_dim_m1": _metric(dims.get("upper_dim_m1", 0), "count"),
            "basic.upper_build_rss_mb": _metric(rss_after("basic.upper_build"), "MB"),
            "basic.upper_dual_rss_mb": _metric(rss_after("basic.upper_dual"), "MB"),
            "angle.pair_ms_p97": _metric(
                statistics.median(harness.percentile(r.angle_ms, 97) for r in untraced), "ms"
            ),
            "angle.quasibasis_ms_p50": _metric(harness.percentile(route_ms["quasibasis"], 50), "ms"),
            "angle.definition_ms_p50": _metric(harness.percentile(route_ms["definition"], 50), "ms"),
            "angle.max_oracle_err": _metric(max(r.max_oracle_err for r in reps), "cos"),
            "angle.max_path_disagreement": _metric(
                max(r.max_path_disagreement for r in reps), "cos"
            ),
            "trace.overhead_s": _metric(traced_wall - untraced_wall, "s"),
            "trace.phase_coverage": _metric(
                min(harness.phase_coverage(tracer.of_run(i)) for i in traced_ids), "ratio"
            ),
        }
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_library()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(harness.WORKLOADS)}")
    result, meta = run(args)
    for line in meta["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
