"""Layered benchmark of expectile_mf: launcher.

    python3 perfbench/run.py --workload hr_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The launcher pins the BLAS to one thread for
itself and every process it starts, runs the workload in one worker process
(worker.py), times fresh interpreters importing the package (set-up) before
and after the worker, and prints the metrics BENCHMARK.json names: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1. The last
line of standard output is the result JSON; the line before it records the
environment. Full results and span traces are kept under perfbench/runs/.

Exits 2 without a result when the package source is missing or the worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUNS = HERE / "runs"
# The module each workload's users import first: the CLI for cli_small.
SETUP_IMPORT = {"hr_sweep": "expectile_mf", "spec_algos": "expectile_mf", "cli_small": "expectile_mf.cli"}
# Probes before and after the worker each; setup_s is the median of both sets,
# which samples the machine's speed at both ends of the run.
SETUP_REPEATS = 11
TIME_LIMIT_S = 170
# Pinned so that timings are single-threaded and BLAS threads add no noise.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EXPECTILE_MF_THREADS"}
    env.update(PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_setup(module: str, env: dict, walls: list, imports: list) -> None:
    """Append SETUP_REPEATS fresh interpreters' process wall times and in-process
    import times of module."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"importing {module} failed: {proc.stderr.strip()[-500:]}")
        imports.append(float(proc.stdout))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of expectile_mf.")
    parser.add_argument("--workload", choices=sorted(SETUP_IMPORT), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "expectile_mf" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = pinned_env()
    walls, imports = [], []
    try:
        probe_setup(SETUP_IMPORT[args.workload], env, walls, imports)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = RUNS / f"{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--workdir", str(RUNS / f"work-{tag}-{os.getpid()}")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        print("error: worker ran out of time", file=sys.stderr)
        return 2
    if proc.returncode != 0 or not out.is_file():
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 2
    try:
        probe_setup(SETUP_IMPORT[args.workload], env, walls, imports)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    setup_s, import_s = statistics.median(walls), statistics.median(imports)

    result = json.loads(out.read_text(encoding="utf-8"))
    # The probe imports the CLI only for cli_small; elsewhere the CLI is unused.
    values = dict(result["metrics"], setup_s=setup_s,
                  **{"cli.import_s": import_s if args.workload == "cli_small" else 0.0})
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: worker did not report {missing}", file=sys.stderr)
        return 2
    result["metrics"] = values
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for error in result["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
