"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench

Tiny instances of each workload keep these fast; the CLI tests start real
``python -m expectile_mf.cli`` subprocesses.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from expectile_mf import analysis
from expectile_mf.model import FactorModel, loss_and_gradient

import run
import worker
from tracing import NullTracer
from workloads import CheckFailed, CliSmall, HrSweep, Ops, SpecAlgos, check_losses

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny(name):
    return {
        "hr_sweep": lambda: HrSweep(persons=4, days=10),
        "spec_algos": lambda: SpecAlgos(rows=30, cols=30, n_datasets=1, max_iters=5),
        "cli_small": lambda: CliSmall(size=80, restarts=1, trials=1, ranks="1"),
    }[name]()


def benchmark_spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_match_the_worker():
    spec = benchmark_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert end_to_end == set(worker.end_to_end([])) | {"setup_s"}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(worker.PER_LAYER) | {"cli.import_s"}
    assert {w["name"] for w in spec["workloads"]} == set(run.SETUP_IMPORT)


@pytest.mark.parametrize("name", ["hr_sweep", "spec_algos", "cli_small"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload_completes(tmp_path, name, trace):
    workload = tiny(name)
    workload.prepare(7, tmp_path)
    ops, jobs, tracer = worker.run_jobs(workload, 0.0, trace)
    assert ops.attempted > 0 and ops.failed == 0, ops.errors
    metrics = worker.per_layer(jobs, tracer) if trace else worker.end_to_end(jobs)
    assert set(metrics) == set(worker.PER_LAYER if trace else worker.end_to_end([]))
    assert all(math.isfinite(v) for v in metrics.values())
    if not trace:
        assert metrics["wall_s"] > 0 and metrics["final_loss_ratio"] > 0


def test_spec_algos_checks_the_datasets_compare_algorithms_fits(tmp_path, monkeypatch):
    workload = SpecAlgos(rows=30, cols=30, n_datasets=2, max_iters=5)
    workload.prepare(7, tmp_path)
    fitted = []
    normalize = analysis.normalize
    monkeypatch.setattr(analysis, "normalize", lambda x: fitted.append(normalize(x)) or fitted[-1])
    ops = Ops()
    workload.job(ops, NullTracer())
    assert ops.failed == 0, ops.errors
    additive = [loss_and_gradient(FactorModel(info.row_means, info.col_means,
                                              np.zeros((30, 3)), np.zeros((30, 3))), xn, 0.1).loss
                for xn, info in fitted]
    assert additive == workload.additive_losses


def test_a_converged_fit_ends_a_little_below_the_planted_loss(tmp_path):
    workload = HrSweep(persons=4, days=10)
    workload.prepare(3, tmp_path)
    ops = Ops()
    outcome = workload.job(ops, NullTracer())
    assert ops.failed == 0, ops.errors
    # The planted model is one point of the rank-1 family the fit minimizes
    # over, so the fit ends below it, by the noise its free terms absorb.
    assert all(0.5 < ratio < 1.0 for ratio in outcome.loss_ratios), outcome.loss_ratios


def test_shifted_records_fail_the_ingest_check(tmp_path):
    workload = tiny("hr_sweep")
    workload.prepare(3, tmp_path)
    header, *lines = workload.records_path.read_text().splitlines()
    shifted = []
    for line in lines:  # every reading one quantum high: every median moves
        person, stamp, bpm = line.split(",")
        shifted.append(f"{person},{stamp},{float(bpm) + workload.quantum!r}")
    workload.records_path.write_text("\n".join([header, *shifted]) + "\n")
    ops = Ops()
    workload.job(ops, NullTracer())
    assert ops.failed >= 1
    assert any("medians differ" in e or "mask differs" in e for e in ops.errors), ops.errors


def test_corrupted_cli_outputs_fail(tmp_path):
    workload = tiny("cli_small")
    workload.prepare(5, tmp_path)
    ops = Ops()
    workload.job(ops, NullTracer())
    assert ops.failed == 0, ops.errors

    band = workload.dir / "band.csv"
    text = band.read_text()
    band.write_text(text.replace(",lower,", ",tmp,").replace(",upper,", ",lower,")
                    .replace(",tmp,", ",upper,"))
    ops.run("cli.band_curves", lambda: None, check=workload._check_band_csv)
    assert ops.failed == 1

    sweep = workload.dir / "sweep" / "sweep_summary.csv"
    sweep.write_text(sweep.read_text().replace("grad_tolerance_met", "max_iters", 1))
    ops.run("cli.rerun_identical", workload._check_rerun)
    assert ops.failed == 2 and "rerun outputs differ" in ops.errors[-1]


def test_outputs_that_differ_only_in_wall_clock_fields_match(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, seconds in ((a, 0.25), (b, 7.5)):
        root.mkdir()
        (root / "r.json").write_text(json.dumps({"loss": 1.0, "elapsed_seconds": seconds,
                                                 "nested": [{"wall_time_seconds": seconds}]}))
        (root / "t.csv").write_text(f"trial,loss,seconds\n0,1.5,{seconds}\n")
    from workloads import snapshot_outputs

    assert snapshot_outputs(a) == snapshot_outputs(b)


def test_failed_check_counts_against_attempted():
    ops = Ops()
    assert ops.run("ok", lambda: 3, check=lambda v: None) == 3
    assert ops.run("bad", lambda: 3, check=lambda v: 1 / 0, weight=2) is None
    assert (ops.attempted, ops.failed) == (3, 2)


def test_loss_check_is_one_sided():
    check_losses([0.5, 1.0005], [1.0, 1.0])
    with pytest.raises(CheckFailed):
        check_losses([1.002], [1.0])
    with pytest.raises(CheckFailed):
        check_losses([float("nan")], None)
