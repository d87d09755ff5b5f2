"""The benchmark's three workloads, their seeded inputs and their output checks.

Each workload makes its inputs once per run from the seed (``prepare``) and
then runs one job (``job``) as often as the run's time allows; the repeats
of a run share their inputs. A job is a fixed amount of work whose size is
stated below, so its wall time is the inverse of throughput.

Every layer call is an operation. ``Ops.run`` counts it as attempted and as
failed when it raises or when its output check fails, so one bad output
never hides behind a good timing.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from expectile_mf import analysis, expectiles, ingest, masked, pipeline, simulate
from expectile_mf.model import FactorModel, loss_and_gradient
from expectile_mf.optim import OptimizeOptions
from expectile_mf.util import derive_seeds

REFERENCE_PATH = Path(__file__).with_name("reference_losses.json")
SRC = Path(__file__).resolve().parent.parent / "src"
# One-sided: a fit may end lower than the seed commit's, never higher by more
# than this share. The check guards against speed bought by stopping early.
LOSS_REL_TOL = 1e-3
ORIENT_PIVOT = 72


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(ok, message) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Ops:
    """Attempted and failed operation counts, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def run(self, name, fn, *args, check=None, weight=1, **kwargs):
        """Call fn, then check(result); a raise from either fails the operation.

        weight counts one call as several operations (a sweep of three fits).
        Returns the result, or None when the operation failed.
        """
        self.attempted += weight
        try:
            result = fn(*args, **kwargs)
            if check is not None:
                check(result)
        except Exception as exc:  # a failed operation is recorded, the run goes on
            self.failed += weight
            if len(self.errors) < 20:
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        return result

    def skip(self, count, outcome):
        """Count operations that could not run, because an earlier one failed, as failed."""
        self.attempted += count
        self.failed += count
        return outcome


@dataclass
class JobOutcome:
    """What one job reports besides its wall time."""

    fit_seconds: dict = field(default_factory=dict)  # algorithm -> summed optimizer seconds
    loss_ratios: list = field(default_factory=list)  # final loss / planted_loss, per fit
    checked_losses: list = field(default_factory=list)  # the ones compared with the reference
    statuses: list = field(default_factory=list)  # where the optimizer is out of reach of spans
    observed_frac: float = 0.0


def load_reference(workload, key: str):
    """The seed commit's final losses for this input, or None when none were recorded.

    References hold only for the parameters they were recorded with.
    """
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        entry = json.load(fh).get(workload.name)
    if entry is None or entry["params"] != workload.params:
        return None
    return entry["losses"].get(key)


def check_losses(losses, reference) -> None:
    """Finite losses, each no worse than its reference by more than LOSS_REL_TOL."""
    require(all(math.isfinite(v) for v in losses), f"non-finite loss in {losses}")
    if reference is None:
        return
    require(len(reference) == len(losses), f"{len(losses)} losses, reference has {len(reference)}")
    for got, ref in zip(losses, reference):
        require(got <= ref * (1.0 + LOSS_REL_TOL), f"loss {got!r} above reference {ref!r}")


def planted_loss(xn, info, r, c, u, v, tau) -> float:
    """The loss a fit that recovered the planted model exactly would reach.

    r, c, u, v are the planted terms in the scale of the data before
    normalization; info is the normalization that turned that data into xn.
    The intercept moves to the tau-expectile of the planted noise, which is
    where a tau fit puts it. Dividing a fit's final loss by this value takes
    out the noise level of the dataset, so the ratio hardly changes with the
    seed that drew it.
    """
    r, c = (np.asarray(r) - info.mean) / info.std, np.asarray(c) / info.std
    u = np.asarray(u) / info.std
    noise = (xn.values - (r[:, None] + c[None, :] + u @ np.asarray(v).T))[xn.mask]
    shift = expectiles.scalar_expectile(noise, tau)
    return loss_and_gradient(FactorModel(r + shift, c, u, v), xn, tau).loss


def check_bands(lower, center, upper, u) -> None:
    """Band algebra of a rank-1 model: center is the midpoint and the band opens
    upwards where u >= 0 (lower <= center <= upper) and downwards where u < 0."""
    up = u >= 0.0
    require(np.all(lower[up] <= center[up]) and np.all(center[up] <= upper[up]),
            "lower <= center <= upper violated where u >= 0")
    require(np.all(upper[~up] <= center[~up]) and np.all(center[~up] <= lower[~up]),
            "band not reversed where u < 0")
    require(u[ORIENT_PIVOT] >= 0.0, f"u[{ORIENT_PIVOT}] = {u[ORIENT_PIVOT]} is negative")


def check_expectile_curves(curves, n_rows, n_taus) -> None:
    """One row per matrix row, one column per increasing tau, nondecreasing along tau."""
    require(curves.shape == (n_rows, n_taus), f"shape {curves.shape}")
    require(np.all(np.isfinite(curves)), "non-finite expectile")
    require(np.all(np.diff(curves, axis=1) >= 0.0), "expectiles decrease with tau")


# ---------------------------------------------------------------------------
# hr_sweep: the paper's heart-rate flow, in-process
# ---------------------------------------------------------------------------


class HrSweep:
    """Records CSV -> person-day matrix -> matrix CSV round trip -> tau sweep
    -> band curves and marginal expectiles.

    The planted heart-rate matrix is one fixed instance (like the paper's one
    study); the seed draws how it is recorded: 1-3 readings per observed
    segment whose median is the planted value, their times within the
    segment and the order of the records. So the fit sees the same matrix on
    every seed and does the same work, while ingest reads a new stream.
    """

    name = "hr_sweep"
    min_jobs = 1
    taus = (0.1, 0.5, 0.9)
    planted_seed = 20160229  # the CLI's default seed, fixed before any measurement
    # Readings are multiples of 1/64 bpm, so a two-reading median is exact.
    quantum = 1.0 / 64.0

    def __init__(self, persons=50, days=20, max_missing=0.95):
        self.params = {"persons": persons, "days": days, "max_missing": max_missing}
        self.persons, self.days, self.max_missing = persons, days, max_missing

    def prepare(self, seed, workdir: Path) -> None:
        n_cols = self.persons * self.days
        sim = simulate.generate(simulate.SimulationSpec(
            m=ingest.SEGMENTS_PER_DAY, n=n_cols, na_portion=0.7, true_rank=1,
            seed=self.planted_seed,
        ))
        bpm = np.round((80.0 + 6.0 * sim.x.values) / self.quantum) * self.quantum
        mask = sim.x.mask
        if np.any(bpm[mask] <= 0.0):
            raise ValueError("planted instance maps to a non-positive bpm")
        self.expected_values = np.where(mask, bpm, 0.0)
        self.expected_mask = mask
        xn, info = masked.normalize(masked.MaskedMatrix(self.expected_values, mask))
        planted = (80.0 + 6.0 * sim.true_r, 6.0 * sim.true_c, 6.0 * sim.true_u, sim.true_v)
        self.planted_losses = [planted_loss(xn, info, *planted, tau) for tau in self.taus]
        first_day = date(2024, 3, 1)
        self.expected_labels = tuple(
            (f"p{p:03d}", first_day + timedelta(days=d))
            for p in range(self.persons) for d in range(self.days)
        )
        self.records_path = workdir / "records.csv"
        self.n_records = _write_records(self.records_path, bpm, mask, self.expected_labels,
                                        self.quantum, np.random.default_rng(seed))
        self.matrix_path = workdir / "matrix.csv"
        self.reference = load_reference(self, "planted")

    def job(self, ops: Ops, tracer) -> JobOutcome:
        out = JobOutcome()
        n_taus = len(self.taus)
        # 5 ingest and CSV steps, then per tau one fit and one band, then expectiles
        remaining = 5 + 2 * n_taus + 1
        records = ops.run("ingest.read_records_csv", ingest.read_records_csv, self.records_path,
                          check=lambda recs: require(len(recs) == self.n_records, "record count"))
        if records is None:
            return ops.skip(remaining - 1, out)
        pdm = ops.run("ingest.bin_records", ingest.bin_records, records, check=self._check_binned)
        if pdm is None:
            return ops.skip(remaining - 2, out)
        prepared = ops.run("ingest.filter_and_normalize", ingest.filter_and_normalize,
                           pdm, self.max_missing, check=self._check_normalized)
        if prepared is None:
            return ops.skip(remaining - 3, out)
        xn, info, _ = prepared
        ops.run("masked.write_matrix_csv", masked.write_matrix_csv, xn, self.matrix_path)
        x = ops.run("masked.read_matrix_csv", masked.read_matrix_csv, self.matrix_path,
                    check=lambda got: _require_same_matrix(got, xn))
        x = xn if x is None else x
        out.observed_frac = float(x.mask.mean())
        config = pipeline.FitConfig(tau=0.5, k=1, opts=OptimizeOptions(algorithm="lbfgs"),
                                    orient_pivot=ORIENT_PIVOT)
        reports = ops.run(
            "pipeline.tau_sweep", pipeline.tau_sweep, x, info.row_means, info.col_means,
            config, self.taus, weight=n_taus,
            check=lambda reps: check_losses([r.final_loss for r in reps], self.reference),
        )
        if reports is None:
            ops.skip(n_taus, out)
        else:
            out.fit_seconds["lbfgs"] = sum(r.elapsed_seconds for r in reports)
            out.checked_losses = [r.final_loss for r in reports]
            out.loss_ratios = [r.final_loss / p for r, p in zip(reports, self.planted_losses)]
            for report in reports:
                u = report.model.u[:, 0]
                ops.run("analysis.band_curves", analysis.band_curves, report.model, info,
                        check=lambda bands, u=u: check_bands(*bands, u))
        ops.run("expectiles.marginal_expectile_curves", expectiles.marginal_expectile_curves,
                x, self.taus, check=lambda c: check_expectile_curves(c, x.n_rows, n_taus))
        return out

    def _check_binned(self, pdm) -> None:
        got = pdm.matrix
        require(pdm.column_labels == self.expected_labels, "column labels differ")
        require(np.array_equal(got.mask, self.expected_mask), "mask differs from the generator's")
        require(np.array_equal(got.values[got.mask], self.expected_values[self.expected_mask]),
                "medians differ from the generator's")

    def _check_normalized(self, prepared) -> None:
        xn, info, kept = prepared
        require(len(kept) == len(self.expected_labels), f"kept {len(kept)} columns")
        obs = xn.observed_values()
        require(abs(float(obs.mean())) <= 1e-9 and abs(float(obs.std()) - 1.0) <= 1e-9,
                "normalized data is not mean 0, std 1")


def _write_records(path, bpm, mask, labels, quantum, rng) -> int:
    """Write 1-3 readings per observed cell, median equal to the cell, shuffled."""
    segs, cols = np.nonzero(mask)
    target = bpm[segs, cols]
    count = rng.integers(1, 4, size=segs.size)
    offsets = rng.integers(1, 65, size=(segs.size, 2)) * quantum
    # readings: [t] | [t - a, t + a] | [t - a, t, t + b]; medians are t exactly
    readings = [
        (t,) if c == 1 else (t - a, t + a) if c == 2 else (t - a, t, t + b)
        for t, c, (a, b) in zip(target.tolist(), count.tolist(), offsets.tolist())
    ]
    lines = []
    for seg, col, values in zip(segs.tolist(), cols.tolist(), readings):
        person, day = labels[col]
        seconds = np.sort(rng.choice(ingest.SECONDS_PER_SEGMENT, size=len(values), replace=False))
        base = seg * ingest.SECONDS_PER_SEGMENT
        for sec, value in zip(seconds.tolist(), values):
            t = base + sec
            lines.append(f"{person},{day.isoformat()}T{t // 3600:02d}:{t // 60 % 60:02d}:{t % 60:02d},{value!r}\n")
    order = rng.permutation(len(lines))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("person_id,timestamp,bpm\n")
        fh.writelines(lines[i] for i in order)
    return len(lines)


def _require_same_matrix(got, want) -> None:
    require(np.array_equal(got.mask, want.mask), "mask changed in the CSV round trip")
    require(np.array_equal(got.values[got.mask], want.values[want.mask]),
            "values changed in the CSV round trip")


# ---------------------------------------------------------------------------
# spec_algos: the optimizer race at BENCH_SPEC
# ---------------------------------------------------------------------------


class SpecAlgos:
    """compare_algorithms on BENCH_SPEC datasets (200x200, 30% missing, true rank
    2, k=3, tau=0.1): bfgs, lbfgs and cg from one shared initial point per
    dataset, over n_datasets datasets drawn from the run's seed, in one call.

    Every fit is capped at max_iters iterations, fewer than any of the three
    needs to converge here, so a job does the same optimizer work whatever the
    datasets and its time is the per-iteration cost of each optimizer (a bfgs
    fit run to convergence takes 9.5 s on one dataset and 21 s on another).
    """

    name = "spec_algos"
    min_jobs = 1
    algorithms = analysis.ALGORITHM_ORDER
    tau, k = 0.1, 3

    def __init__(self, rows=200, cols=200, n_datasets=2, max_iters=50):
        self.rows, self.cols, self.n_datasets, self.max_iters = rows, cols, n_datasets, max_iters

    def prepare(self, seed, workdir: Path) -> None:
        self.spec = simulate.SimulationSpec(m=self.rows, n=self.cols, na_portion=0.3, seed=seed)
        self.additive_losses, self.planted_losses, observed = [], [], []
        # The datasets compare_algorithms fits: it derives their seeds the same way.
        for dataset_seed in derive_seeds(seed, self.n_datasets):
            sim = simulate.generate(replace(self.spec, seed=dataset_seed))
            xn, info = masked.normalize(sim.x)
            observed.append(float(xn.mask.mean()))
            # The additive terms alone: a rank-3 fit must end below this loss.
            additive = FactorModel(info.row_means, info.col_means,
                                   np.zeros((self.rows, self.k)), np.zeros((self.cols, self.k)))
            self.additive_losses.append(loss_and_gradient(additive, xn, self.tau).loss)
            self.planted_losses.append(planted_loss(xn, info, sim.true_r, sim.true_c,
                                                    sim.true_u, sim.true_v, self.tau))
        self.observed_frac = float(np.mean(observed))
        self.first_losses = None

    def job(self, ops: Ops, tracer) -> JobOutcome:
        out = JobOutcome(observed_frac=self.observed_frac,
                         fit_seconds=dict.fromkeys(self.algorithms, 0.0))
        result = ops.run(
            "analysis.compare_algorithms", analysis.compare_algorithms, self.spec,
            n_datasets=self.n_datasets, n_inits=1, tau=self.tau, k=self.k,
            opts=OptimizeOptions(max_iters=self.max_iters), algorithms=self.algorithms,
            threads=1, weight=self.n_datasets * len(self.algorithms), check=self._check,
        )
        if result is not None:
            for row, planted in zip(result.per_dataset, self.planted_losses):
                for a in self.algorithms:
                    out.fit_seconds[a] += row[f"{a}_seconds"]
                    out.loss_ratios.append(row[f"{a}_loss"] / planted)
        return out

    def _check(self, result) -> None:
        require(len(result.per_dataset) == self.n_datasets, f"{len(result.per_dataset)} datasets")
        losses = [[row[f"{a}_loss"] for a in self.algorithms] for row in result.per_dataset]
        for row_losses, additive in zip(losses, self.additive_losses):
            check_losses(row_losses, None)
            require(all(v < additive for v in row_losses),
                    f"losses {row_losses} not below the additive-only loss {additive}")
        if self.first_losses is None:
            self.first_losses = losses
        require(losses == self.first_losses, "losses differ between repeats of the same job")


# ---------------------------------------------------------------------------
# cli_small: the CLI as subprocesses
# ---------------------------------------------------------------------------


class CliSmall:
    """simulate -> fit -> tau-sweep -> expectiles -> band-curves -> bench
    rank-sweep, each a fresh ``python -m expectile_mf.cli``, on a 120x120
    matrix. rank-sweep runs at its default --threads (the core count).

    The matrix and every command's --seed are fixed (planted_seed), whatever
    the run's seed: a job's fits then do the same work on every seed, and
    their final losses stay comparable with one reference. Every fit is
    capped at max_iters iterations (``--max-iters``), fewer than any of them
    needs here, so the fits are a small and fixed share of a job: run to
    convergence, the same commands took 2.5x longer on some seeds than on
    others, all of it in the fits. Every repeat reruns the same commands
    with the same seed into the same directory; its outputs must match the
    first repeat byte for byte once wall-clock fields are removed.
    """

    name = "cli_small"
    min_jobs = 2
    sweep_taus = "0.1,0.3,0.5,0.7,0.9"
    fit_tau = 0.5  # the CLI's default for fit
    planted_seed = 20160229  # the CLI's default seed, fixed before any measurement

    def __init__(self, size=120, restarts=4, trials=2, ranks="1,2", max_iters=20):
        self.params = {"size": size, "restarts": restarts, "trials": trials, "ranks": ranks,
                       "max_iters": max_iters, "planted_seed": self.planted_seed}
        self.size, self.restarts, self.trials, self.ranks = size, restarts, trials, ranks

    def prepare(self, seed, workdir: Path) -> None:
        self.dir = workdir / "cli"
        self.first_snapshot = None
        self.observed_frac = 0.0
        self.reference = load_reference(self, "planted")
        # The matrix `simulate` writes, with the CLI's default spec.
        self.sim = simulate.generate(simulate.SimulationSpec(m=self.size, n=self.size,
                                                             seed=self.planted_seed))
        xn, info = masked.normalize(self.sim.x)
        planted = (self.sim.true_r, self.sim.true_c, self.sim.true_u, self.sim.true_v)
        taus = {self.fit_tau, *map(float, self.sweep_taus.split(","))}
        self.planted_losses = {tau: planted_loss(xn, info, *planted, tau) for tau in taus}
        n, s = str(self.size), str(self.planted_seed)
        restarts, cap = str(self.restarts), ["--max-iters", str(self.params["max_iters"])]
        self.commands = [
            ("simulate", ["simulate", "--rows", n, "--cols", n, "--seed", s, "--out", "m.csv"],
             self._check_simulate),
            ("fit", ["fit", "--input", "m.csv", "--restarts", restarts, "--seed", s,
                     "--orient-pivot", str(ORIENT_PIVOT), "--output", "model.json", *cap],
             self._check_fit),
            ("tau_sweep", ["tau-sweep", "--input", "m.csv", "--taus", self.sweep_taus,
                           "--restarts", restarts, "--seed", s, "--output-dir", "sweep", *cap],
             self._check_sweep),
            ("expectiles", ["expectiles", "--input", "m.csv", "--taus", self.sweep_taus,
                            "--out", "expectiles.csv"], self._check_expectiles),
            ("band_curves", ["band-curves", "--model", "model.json", "--out", "band.csv"],
             self._check_band_csv),
            ("bench_rank_sweep", ["bench", "rank-sweep", "--rows", n, "--cols", n,
                                  "--ranks", self.ranks, "--trials", str(self.trials),
                                  "--seed", s, "--out-csv", "ranks.csv", "--out-json", "ranks.json",
                                  *cap],
             self._check_rank_sweep),
        ]

    def job(self, ops: Ops, tracer) -> JobOutcome:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        out = JobOutcome()
        for name, args, check in self.commands:
            with tracer.span(f"cli.{name}"):
                ops.run(f"cli.{name}", self._cli, args, check=check)
        fits = []  # (algorithm, loss) in output order
        reports = [(self.fit_tau, "model.report.json")]
        reports += [(float(tau), f"sweep/report_tau{float(tau):g}.json")
                    for tau in self.sweep_taus.split(",")]
        for tau, rel in reports:  # fit and tau-sweep run lbfgs on the simulated matrix
            report = self._json(rel)
            if report is None:
                continue
            out.statuses.append(report["status"])
            out.loss_ratios.append(report["final_loss"] / self.planted_losses[tau])
            out.fit_seconds["lbfgs"] = out.fit_seconds.get("lbfgs", 0.0) + report["elapsed_seconds"]
            fits.append(("lbfgs", report["final_loss"]))
        # The rank sweep fits on parallel threads. Each fit's time includes its
        # waits for the GIL and for a free core, which swung fit_s by a third
        # between runs, so its fits count in wall_s but not in fit_s.
        for row in self._csv("ranks.csv"):
            fits.append((row["algorithm"], float(row["loss"])))
        # Only lbfgs losses have a reference: after a capped number of cg
        # iterations the loss depends on cg's line search, which may change.
        out.checked_losses = [loss for algorithm, loss in fits if algorithm == "lbfgs"]
        ops.run("cli.final_losses", check_losses, out.checked_losses, self.reference)
        ops.run("cli.rerun_identical", self._check_rerun)
        out.observed_frac = self.observed_frac
        return out

    def _cli(self, args):
        proc = subprocess.run([sys.executable, "-m", "expectile_mf.cli", *args], cwd=self.dir,
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=150)
        require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc

    def _json(self, rel):
        path = self.dir / rel
        if not path.is_file():
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def _csv(self, rel):
        path = self.dir / rel
        if not path.is_file():
            return []
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def _check_simulate(self, _) -> None:
        values = np.loadtxt(self.dir / "m.csv", delimiter=",", ndmin=2)
        observed = ~np.isnan(values)
        require(observed.shape == (self.size, self.size), f"matrix is {observed.shape}")
        require(np.array_equal(observed, self.sim.x.mask)
                and np.array_equal(values[observed], self.sim.x.values[observed]),
                "simulated matrix differs from simulate.generate's")
        self.observed_frac = float(observed.mean())
        require((self.dir / "m.truth.json").is_file(), "no truth sidecar")

    def _check_fit(self, _) -> None:
        report = self._json("model.report.json")
        require(math.isfinite(report["final_loss"]), "non-finite fit loss")
        doc = self._json("model.json")
        require(doc["u"][ORIENT_PIVOT] >= 0.0, f"u[{ORIENT_PIVOT}] is negative")

    def _check_sweep(self, _) -> None:
        rows = self._csv("sweep/sweep_summary.csv")
        require(len(rows) == len(self.sweep_taus.split(",")), "sweep summary rows")
        require(all(math.isfinite(float(r["final_loss"])) for r in rows), "non-finite sweep loss")

    def _check_expectiles(self, _) -> None:
        rows = self._csv("expectiles.csv")
        n_taus = len(self.sweep_taus.split(","))
        curves = np.array([float(r["expectile"]) for r in rows]).reshape(-1, n_taus)
        check_expectile_curves(curves, self.size, n_taus)

    def _check_band_csv(self, _) -> None:
        series = {"lower": [], "center": [], "upper": []}
        for row in self._csv("band.csv"):
            series[row["series"]].append(float(row["value"]))
        lower, center, upper = (np.array(series[k]) for k in ("lower", "center", "upper"))
        require(lower.size == center.size == upper.size == self.size, "band length")
        check_bands(lower, center, upper, np.array(self._json("model.json")["u"]))

    def _check_rank_sweep(self, _) -> None:
        rows = self._csv("ranks.csv")
        expected = self.trials * len(self.ranks.split(",")) * 2  # lbfgs and cg by default
        require(len(rows) == expected, f"{len(rows)} rank-sweep rows, expected {expected}")

    def _check_rerun(self) -> None:
        snapshot = snapshot_outputs(self.dir)
        if self.first_snapshot is None:
            self.first_snapshot = snapshot
            return
        require(sorted(snapshot) == sorted(self.first_snapshot), "rerun wrote other files")
        differing = [rel for rel in snapshot if snapshot[rel] != self.first_snapshot[rel]]
        require(not differing, f"rerun outputs differ: {differing}")


def snapshot_outputs(root: Path) -> dict:
    """Every output file's text, with wall-clock fields removed.

    Wall-clock fields are JSON keys and CSV columns whose name contains
    "seconds" or "time": the manifest's wall_time_seconds, the reports'
    elapsed_seconds and the rank sweep's seconds columns.
    """
    out = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            text = json.dumps(_scrub(json.loads(text)), sort_keys=True)
        elif path.suffix == ".csv":
            text = _scrub_csv(text)
        out[str(path.relative_to(root))] = text
    return out


def _volatile(name: str) -> bool:
    return "seconds" in name or "time" in name


def _scrub(node):
    if isinstance(node, dict):
        return {k: _scrub(v) for k, v in node.items() if not _volatile(k)}
    if isinstance(node, list):
        return [_scrub(v) for v in node]
    return node


def _scrub_csv(text: str) -> str:
    lines = text.splitlines()
    if not lines:
        return text
    drop = {i for i, name in enumerate(lines[0].split(",")) if _volatile(name)}
    return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i not in drop)
                     for line in lines)


WORKLOADS = {cls.name: cls for cls in (HrSweep, SpecAlgos, CliSmall)}
