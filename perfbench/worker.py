"""The benchmark's worker: one single-threaded process that runs one workload.

Started by run.py with the BLAS pinned to one thread. It makes the
workload's inputs from the seed, repeats the workload's job back to back (a
closed loop with one client) until the next job would overrun the run's
seconds, and writes a result JSON: the metrics, the attempted and failed
operation counts, and the environment. A traced run alternates traced and
untraced jobs, at least one of each, and also writes its spans as JSONL.

    python3 perfbench/worker.py --workload hr_sweep --seed 1 --seconds 30 \
        --trace 0 --out result.json --workdir work
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, Ops

ROOT = Path(__file__).resolve().parent.parent
ALGORITHMS = ("bfgs", "lbfgs", "cg")
# Self time per span, reported as <span>_s. Layers a workload does not call read 0.
SPAN_LAYERS = (
    "ingest.read_records", "ingest.bin_records", "ingest.filter_and_normalize",
    "masked.read_matrix_csv", "masked.write_matrix_csv", "masked.normalize",
    "simulate.generate", "pipeline.fit", "pipeline.tau_sweep",
    "analysis.compare_algorithms", "analysis.band_curves",
    "expectiles.marginal_expectile_curves",
    "cli.simulate", "cli.fit", "cli.tau_sweep", "cli.expectiles", "cli.band_curves",
    "cli.bench_rank_sweep",
)
# cli.import_s comes from the launcher's set-up probe.
PER_LAYER = (
    "model.loss_ms_per_eval", "model.loss_evals", "model.observed_frac",
    *(f"optim.{metric}.{algo}" for metric in ("overhead_ms_per_iter", "evals_per_iter",
                                              "iterations", "fit_s") for algo in ALGORITHMS),
    "optim.nonconverged_frac",
    *(f"{name}_s" for name in SPAN_LAYERS),
    "trace.overhead_s", "trace.spans",
)


def run_jobs(workload, seconds, trace):
    """Repeat the job until the next one would end after the deadline.

    Returns (ops, jobs, tracer); each job is (wall seconds, outcome, run id),
    the run id naming the job's spans, or None when the job was untraced.
    """
    ops, jobs = Ops(), []
    tracer = tracing.Tracer() if trace else None
    min_jobs = max(workload.min_jobs, 2 if trace else 1)
    deadline = time.perf_counter() + seconds
    while True:
        run_id = f"{workload.name}-job{len(jobs)}" if trace and len(jobs) % 2 == 0 else None
        start = time.perf_counter()
        if run_id:
            tracer.run_id = run_id
            with tracer.span("bench.job"), tracing.boundaries(tracer):
                outcome = workload.job(ops, tracer)
        else:
            outcome = workload.job(ops, tracing.NullTracer())
        wall = time.perf_counter() - start
        jobs.append((wall, outcome, run_id))
        if len(jobs) >= min_jobs and time.perf_counter() + wall > deadline:
            return ops, jobs, tracer


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(jobs) -> dict:
    """Medians over the run's jobs. fit_s sums the optimizer time of every fit in
    a job, all algorithms together; final_loss_ratio is the mean over a job's
    fits of final loss / planted-model loss."""
    return {
        "wall_s": _median(wall for wall, _, _ in jobs),
        "fit_s": _median(sum(out.fit_seconds.values()) for _, out, _ in jobs),
        "final_loss_ratio": _median(np.mean(out.loss_ratios) for _, out, _ in jobs
                                    if out.loss_ratios),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(jobs, tracer) -> dict:
    """Per-layer figures of each traced job, median over the traced jobs."""
    spans_by_run = defaultdict(list)
    for span in tracer.spans:
        spans_by_run[span.run_id].append(span)
    rows = [_layer_row(out, spans_by_run[run_id]) for _, out, run_id in jobs if run_id]
    metrics = {name: _median(row[name] for row in rows) for name in PER_LAYER}
    metrics["trace.overhead_s"] = (_median(wall for wall, _, run_id in jobs if run_id)
                                   - _median(wall for wall, _, run_id in jobs if not run_id))
    return metrics


def _layer_row(outcome, spans) -> dict:
    row = dict.fromkeys(PER_LAYER, 0.0)
    own = tracing.self_times(spans)
    by_name = defaultdict(float)
    for span in spans:
        by_name[span.name] += own[span.id]
    for name in SPAN_LAYERS:
        row[f"{name}_s"] = by_name[name]
    evals = 0
    statuses = []
    for algo in ALGORITHMS:
        fits = [s for s in spans if s.name == "optim.minimize" and s.attrs["algorithm"] == algo]
        iters = sum(s.attrs["iterations"] for s in fits)
        algo_evals = sum(s.attrs["function_evals"] for s in fits)
        evals += algo_evals
        statuses += [s.attrs["status"] for s in fits]
        row[f"optim.iterations.{algo}"] = iters
        row[f"optim.fit_s.{algo}"] = sum(s.attrs["elapsed_seconds"] for s in fits)
        if iters:
            row[f"optim.evals_per_iter.{algo}"] = algo_evals / iters
            row[f"optim.overhead_ms_per_iter.{algo}"] = 1e3 * sum(own[s.id] for s in fits) / iters
    if not statuses:  # the fits ran in CLI subprocesses, out of reach of spans
        statuses = outcome.statuses
        for algo, seconds in outcome.fit_seconds.items():
            row[f"optim.fit_s.{algo}"] = seconds
    row["model.loss_evals"] = evals
    if evals:
        row["model.loss_ms_per_eval"] = 1e3 * by_name["model.objective"] / evals
    if statuses:
        row["optim.nonconverged_frac"] = sum(s != "grad_tolerance_met" for s in statuses) / len(statuses)
    row["model.observed_frac"] = outcome.observed_frac
    row["trace.spans"] = len(spans)
    return row


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _blas_version(),
        "blas_threads": _openblas_threads(),
        # The CLI's --threads default: EXPECTILE_MF_THREADS, else os.cpu_count().
        "cli_threads_default": int(os.environ.get("EXPECTILE_MF_THREADS") or os.cpu_count() or 1),
        **_git_state(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        return None


def _openblas_threads():
    # numpy wheels bundle OpenBLAS under numpy.libs with prefixed symbols.
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_commit": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"git_commit": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        origin = time.perf_counter()
        workload.prepare(args.seed, args.workdir)
        ops, jobs, tracer = run_jobs(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    metrics = per_layer(jobs, tracer) if args.trace else end_to_end(jobs)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": ops.attempted, "failed": ops.failed, "errors": ops.errors,
        "job_walls_s": [wall for wall, _, _ in jobs],
        "metrics": metrics, "environment": environment(),
    }
    if args.trace:
        trace_path = args.out.with_name(args.out.stem + ".spans.jsonl")
        tracer.write_jsonl(trace_path, origin)
        result["spans_path"] = str(trace_path)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
