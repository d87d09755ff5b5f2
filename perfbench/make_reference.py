"""Record the final losses the program reaches on the benchmark's inputs.

    python3 perfbench/make_reference.py

Run from the repository root, on a commit whose fits are trusted (the file
in the repository was written at the commit that added the benchmark). It
writes perfbench/reference_losses.json: the lbfgs losses of hr_sweep and
cli_small on their fixed planted matrices, which do not depend on the run's
seed. The output checks compare every later run's lbfgs fits with these
values. spec_algos has none: its fits stop at an iteration cap, where the
loss depends on the optimizer's path, which optimizer changes may alter;
its final_loss_ratio bound guards those fits instead.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS before numpy is imported below

os.environ.update(run.pinned_env())
sys.path.insert(0, str(run.ROOT / "src"))

from workloads import REFERENCE_PATH, CliSmall, HrSweep, Ops  # noqa: E402
from tracing import NullTracer  # noqa: E402


def losses_of(workload, seed) -> list:
    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
        workload.prepare(seed, Path(tmp))
        workload.reference = None
        ops = Ops()
        outcome = workload.job(ops, NullTracer())
    if ops.failed:
        raise SystemExit(f"{workload.name} seed {seed} failed: {ops.errors}")
    return outcome.checked_losses


def main() -> int:
    doc = {workload.name: {"params": workload.params,
                           "losses": {"planted": losses_of(workload, 0)}}
           for workload in (HrSweep(), CliSmall())}
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
