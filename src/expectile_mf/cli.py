"""Command-line interface.

Every subcommand is seeded (a fixed default seed unless --entropy is
given), writes machine-readable outputs with 17 significant digits, and
drops a manifest JSON next to its primary output recording the resolved
configuration. Exit codes: 0 success, 1 usage error, 2 data or convergence
error.
"""

from __future__ import annotations

import json
import secrets
import sys
import time
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import (
    GroupedSeries,
    band_curves,
    compare_algorithms,
    icc,
    init_resilience,
    rank_sweep,
)
from .errors import ExpectileMFError, ParseError, TooFewGroups
from .expectiles import marginal_expectile_curves
from .ingest import bin_records, filter_and_normalize, read_records_csv
from .masked import (
    NormalizationInfo,
    masked_col_means,
    masked_row_means,
    normalize,
    open_input,
    read_matrix_csv,
    write_matrix_csv,
)
from .model import model_from_dict, save_model_json
from .optim import ALGORITHMS, STATUS_GRAD_TOL, OptimizeOptions
from .pipeline import FitConfig, FitReport, fit, tau_sweep
from .simulate import SimulationSpec, generate

DEFAULT_SEED = 20160229
ORIENT_PIVOT_288 = 72  # about six a.m. in a day of 288 five-minute segments


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (str, int)) else _fmt(c) for c in row) + "\n")


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _manifest(primary_output, subcommand, config, seeds, inputs, outputs, started) -> None:
    doc = {
        "subcommand": subcommand,
        "config": config,
        "seeds": seeds,
        "version": __version__,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "wall_time_seconds": time.perf_counter() - started,
    }
    path = Path(primary_output)
    _write_json(path.with_name(path.name + ".manifest.json"), doc)


def _resolve_seed(seed, entropy) -> int:
    if entropy:
        return secrets.randbits(63)
    return DEFAULT_SEED if seed is None else seed


def _parse_list(text, kind) -> list:
    """Non-empty comma-separated list of kind (float or int)."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise click.UsageError(f"expected comma-separated {kind.__name__}s, got {text!r}")
    return values


def _parse_algorithms(text) -> list[str]:
    algos = [tok.strip().lower() for tok in text.split(",") if tok.strip()]
    for algo in algos:
        if algo not in ALGORITHMS:
            raise click.UsageError(f"unknown algorithm {algo!r}; pick from {ALGORITHMS}")
    return algos


def _load_json(path, parse):
    """Return parse(document) of a JSON input file; a malformed one is a data error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (KeyError, TypeError, ValueError, ExpectileMFError) as exc:
        raise ExpectileMFError(f"{path}: {type(exc).__name__}: {exc}") from None


def _with_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


_seed_options = [
    click.option("--seed", type=int, default=None, help=f"PRNG seed (default {DEFAULT_SEED})."),
    click.option("--entropy", is_flag=True, help="Use a fresh random seed instead of the default."),
]


@click.group()
@click.version_option(__version__)
def cli():
    """Low-rank expectile matrix fitting: simulate, fit, analyze."""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--rows", type=int, required=True)
@click.option("--cols", type=int, required=True)
@click.option("--true-rank", type=int, default=2, show_default=True)
@click.option("--sigma", type=float, default=0.3, show_default=True)
@click.option("--na", type=float, default=0.3, show_default=True)
@click.option("--r-sd", type=float, default=1.0, show_default=True)
@click.option("--c-sd", type=float, default=1.0, show_default=True)
@click.option("--u-sd", type=float, default=1.0, show_default=True)
@click.option("--v-sd", type=float, default=1.0, show_default=True)
@_with_options(_seed_options)
@click.option("--out", type=click.Path(), required=True, help="Matrix CSV path.")
def simulate(rows, cols, true_rank, sigma, na, r_sd, c_sd, u_sd, v_sd, seed, entropy, out):
    """Generate a seeded synthetic matrix plus a JSON sidecar of the truth."""
    started = time.perf_counter()
    seed = _resolve_seed(seed, entropy)
    spec = SimulationSpec(
        m=rows, n=cols, r_sd=r_sd, c_sd=c_sd, u_sd=u_sd, v_sd=v_sd,
        sigma=sigma, na_portion=na, true_rank=true_rank, seed=seed,
    )
    sim = generate(spec)
    out = Path(out)
    write_matrix_csv(sim.x, out)
    sidecar = out.with_name(out.stem + ".truth.json")
    _write_json(
        sidecar,
        {
            "spec": asdict(spec),
            "true_r": sim.true_r.tolist(),
            "true_c": sim.true_c.tolist(),
            "true_u": sim.true_u.ravel().tolist(),
            "true_v": sim.true_v.ravel().tolist(),
        },
    )
    _manifest(out, "simulate", {"spec": asdict(spec)}, [seed], [], [out, sidecar], started)
    click.echo(f"wrote {out} and {sidecar}")


# ---------------------------------------------------------------------------
# fit / tau-sweep
# ---------------------------------------------------------------------------


def _prepare_fit_input(input_path, header, normalization_path, no_normalize):
    """Returns (normalized matrix, info). Raw input is normalized here unless
    a precomputed normalization sidecar is supplied or normalization is off."""
    x = read_matrix_csv(input_path, header=header)
    if normalization_path is not None:
        return x, _load_json(normalization_path, NormalizationInfo.from_dict)
    if no_normalize:
        info = NormalizationInfo(
            mean=0.0, std=1.0, row_means=masked_row_means(x), col_means=masked_col_means(x)
        )
        return x, info
    return normalize(x)


def _default_pivot(n_rows, rank, orient_pivot):
    if orient_pivot is not None:
        return orient_pivot
    return ORIENT_PIVOT_288 if n_rows == 288 and rank == 1 else None


def _warn_unconverged(tau, report: FitReport) -> None:
    if report.status != STATUS_GRAD_TOL:
        click.echo(f"warning: fit at tau {tau:g} stopped with status {report.status} "
                   f"after {report.iterations} iterations", err=True)


def _report_doc(report: FitReport) -> dict:
    return {
        "final_loss": report.final_loss,
        "iterations": report.iterations,
        "function_evals": report.function_evals,
        "elapsed_seconds": report.elapsed_seconds,
        "status": report.status,
        "restart_losses": report.restart_losses,
    }


_fit_options = [
    click.option("--input", "input_path", type=click.Path(exists=True), required=True),
    click.option("--header/--no-header", default=False, help="Input CSV has a header row."),
    click.option("--rank", type=int, default=1, show_default=True),
    click.option("--algorithm", type=click.Choice(ALGORITHMS), default="lbfgs", show_default=True),
    click.option("--restarts", type=int, default=1, show_default=True),
    *_seed_options,
    click.option("--grad-tol", type=float, default=1e-6, show_default=True),
    click.option("--max-iters", type=int, default=500, show_default=True),
    click.option("--orient-pivot", type=int, default=None,
                 help="Rank-1 sign pivot row (default 72 for a rank-1 fit of 288 rows)."),
    click.option("--normalization", "normalization_path", type=click.Path(exists=True),
                 default=None, help="JSON sidecar with mean/std/row/col means of the input."),
    click.option("--no-normalize", is_flag=True, help="Treat the input as already normalized."),
]


@cli.command(name="fit")
@_with_options(_fit_options)
@click.option("--tau", type=float, default=0.5, show_default=True)
@click.option("--warm-start", "warm_start_path", type=click.Path(exists=True), default=None)
@click.option("--output", type=click.Path(), required=True, help="Model JSON path.")
def fit_cmd(input_path, header, rank, algorithm, restarts, seed, entropy, grad_tol,
            max_iters, orient_pivot, normalization_path, no_normalize, tau,
            warm_start_path, output):
    """Fit one model; writes model JSON plus a report JSON."""
    started = time.perf_counter()
    seed = _resolve_seed(seed, entropy)
    x, info = _prepare_fit_input(input_path, header, normalization_path, no_normalize)
    warm = None
    if warm_start_path is not None:
        warm, _, _ = _load_json(warm_start_path, model_from_dict)
    config = FitConfig(
        tau=tau,
        k=rank,
        opts=OptimizeOptions(algorithm=algorithm, grad_tol=grad_tol, max_iters=max_iters),
        n_restarts=restarts,
        seed=seed,
        orient_pivot=_default_pivot(x.n_rows, rank, orient_pivot),
        warm_start=warm,
    )
    report = fit(x, info.row_means, info.col_means, config)
    output = Path(output)
    save_model_json(output, report.model, tau=tau, normalization=info)
    report_path = output.with_name(output.stem + ".report.json")
    _write_json(report_path, _report_doc(report))
    _manifest(
        output, "fit",
        {
            "input": str(input_path), "tau": tau, "rank": rank, "algorithm": algorithm,
            "restarts": restarts, "grad_tol": grad_tol, "max_iters": max_iters,
            "orient_pivot": config.orient_pivot, "normalized_by_cli": normalization_path is None and not no_normalize,
        },
        [seed], [input_path], [output, report_path], started,
    )
    _warn_unconverged(tau, report)
    click.echo(f"final loss {_fmt(report.final_loss)} ({report.status}); wrote {output}")


@cli.command(name="tau-sweep")
@_with_options(_fit_options)
@click.option("--taus", default="0.1,0.5,0.9", show_default=True)
@click.option("--output-dir", type=click.Path(), required=True)
def tau_sweep_cmd(input_path, header, rank, algorithm, restarts, seed, entropy, grad_tol,
                  max_iters, orient_pivot, normalization_path, no_normalize, taus, output_dir):
    """Fit a list of taus, warm-starting each from the tau = 0.5 solution."""
    started = time.perf_counter()
    seed = _resolve_seed(seed, entropy)
    tau_values = _parse_list(taus, float)
    for i, tau in enumerate(tau_values):
        for other in tau_values[:i]:
            if f"{other:g}" == f"{tau:g}":
                raise click.UsageError(
                    f"taus {other!r} and {tau!r} both write model_tau{tau:g}.json")
    x, info = _prepare_fit_input(input_path, header, normalization_path, no_normalize)
    config = FitConfig(
        tau=0.5,
        k=rank,
        opts=OptimizeOptions(algorithm=algorithm, grad_tol=grad_tol, max_iters=max_iters),
        n_restarts=restarts,
        seed=seed,
        orient_pivot=_default_pivot(x.n_rows, rank, orient_pivot),
    )
    reports = tau_sweep(x, info.row_means, info.col_means, config, tau_values)
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    summary_rows = []
    for tau, report in zip(tau_values, reports):
        model_path = out_dir / f"model_tau{tau:g}.json"
        save_model_json(model_path, report.model, tau=tau, normalization=info)
        _write_json(out_dir / f"report_tau{tau:g}.json", _report_doc(report))
        outputs += [model_path, out_dir / f"report_tau{tau:g}.json"]
        summary_rows.append([tau, report.final_loss, report.iterations, report.status])
        _warn_unconverged(tau, report)
    summary_path = out_dir / "sweep_summary.csv"
    _write_csv(summary_path, ["tau", "final_loss", "iterations", "status"], summary_rows)
    outputs.append(summary_path)
    _manifest(
        summary_path, "tau-sweep",
        {"input": str(input_path), "taus": tau_values, "rank": rank, "algorithm": algorithm,
         "restarts": restarts, "grad_tol": grad_tol, "max_iters": max_iters},
        [seed], [input_path], outputs, started,
    )
    click.echo(f"wrote {len(reports)} fits under {out_dir}")


# ---------------------------------------------------------------------------
# expectiles / icc / ingest / band-curves
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--header/--no-header", default=False)
@click.option("--taus", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", show_default=True)
@click.option("--out", type=click.Path(), required=True)
def expectiles(input_path, header, taus, out):
    """Marginal expectile curves per matrix row (long CSV: row_index, tau, expectile)."""
    started = time.perf_counter()
    tau_values = _parse_list(taus, float)
    x = read_matrix_csv(input_path, header=header)
    curves = marginal_expectile_curves(x, tau_values)
    rows = [
        [i, tau_values[j], curves[i, j]]
        for i in range(curves.shape[0])
        for j in range(len(tau_values))
    ]
    _write_csv(Path(out), ["row_index", "tau", "expectile"], rows)
    _manifest(Path(out), "expectiles", {"input": str(input_path), "taus": tau_values},
              [], [input_path], [out], started)
    click.echo(f"wrote {out}")


@cli.command(name="icc")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help="Two-column CSV: group_id, value (no header).")
@click.option("--out", type=click.Path(), required=True, help="JSON output path.")
def icc_cmd(input_path, out):
    """Between-group share of variance for grouped values."""
    started = time.perf_counter()
    groups, values = [], []
    with open_input(input_path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(line_no, "expected 'group_id,value'")
            groups.append(parts[0])
            try:
                value = float(parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad value {parts[1]!r}") from None
            if not np.isfinite(value):
                raise ParseError(line_no, f"non-finite value {value!r}")
            values.append(value)
    n_groups = len(set(groups))
    if n_groups < 2:
        raise TooFewGroups(f"{input_path}: need at least 2 distinct groups, got {n_groups}")
    value = icc(GroupedSeries(np.asarray(values), np.asarray(groups)))
    _write_json(Path(out), {"icc": value, "n_values": len(values), "n_groups": n_groups})
    _manifest(Path(out), "icc", {"input": str(input_path)}, [], [input_path], [out], started)
    click.echo(f"icc {_fmt(value)}")


@cli.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--output", type=click.Path(), required=True, help="Matrix CSV path.")
@click.option("--labels", "labels_path", type=click.Path(), required=True)
@click.option("--max-missing", type=float, default=0.7, show_default=True)
@click.option("--person-col", default="person_id", show_default=True)
@click.option("--time-col", default="timestamp", show_default=True)
@click.option("--bpm-col", default="bpm", show_default=True)
def ingest(input_path, output, labels_path, max_missing, person_col, time_col, bpm_col):
    """Bin heart-rate records into the 288 x person-days matrix, filter, normalize."""
    started = time.perf_counter()
    records = read_records_csv(input_path, person_col=person_col, time_col=time_col, bpm_col=bpm_col)
    pdm = bin_records(records)
    xn, info, kept_labels = filter_and_normalize(pdm, max_missing)
    output = Path(output)
    write_matrix_csv(xn, output)
    _write_csv(
        Path(labels_path),
        ["column_index", "person_id", "date"],
        [[j, pid, day.isoformat()] for j, (pid, day) in enumerate(kept_labels)],
    )
    norm_path = output.with_name(output.stem + ".normalization.json")
    _write_json(norm_path, info.to_dict())
    _manifest(
        output, "ingest",
        {"input": str(input_path), "max_missing": max_missing,
         "columns_before": pdm.matrix.n_cols, "columns_after": xn.n_cols},
        [], [input_path], [output, labels_path, norm_path], started,
    )
    click.echo(f"binned {pdm.matrix.n_cols} person-days, kept {xn.n_cols}; wrote {output}")


@cli.command(name="band-curves")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def band_curves_cmd(model_path, out):
    """Lower/center/upper day curves from a rank-1 model (long CSV: x, series, value)."""
    started = time.perf_counter()
    model, _, info = _load_json(model_path, model_from_dict)
    if info is None:
        raise ExpectileMFError(f"{model_path}: carries no normalization info")
    lower, center, upper = band_curves(model, info)
    rows = []
    for name, curve in (("lower", lower), ("center", center), ("upper", upper)):
        rows += [[i, name, curve[i]] for i in range(curve.size)]
    _write_csv(Path(out), ["x", "series", "value"], rows)
    _manifest(Path(out), "band-curves", {"model": str(model_path)}, [], [model_path], [out], started)
    click.echo(f"wrote {out}")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@cli.group()
def bench():
    """Seeded simulation studies (CSV tables plus a JSON summary)."""


_sim_spec_options = [
    click.option("--rows", type=int, default=200, show_default=True),
    click.option("--cols", type=int, default=200, show_default=True),
    click.option("--true-rank", type=int, default=2, show_default=True),
    click.option("--sigma", type=float, default=0.3, show_default=True),
    click.option("--na", type=float, default=0.3, show_default=True),
    *_seed_options,
]


@bench.command(name="compare-algos")
@_with_options(_sim_spec_options)
@click.option("--datasets", type=int, default=10, show_default=True)
@click.option("--inits", type=int, default=10, show_default=True)
@click.option("--tau", type=float, default=0.2, show_default=True)
@click.option("--rank", type=int, default=3, show_default=True)
@click.option("--grad-tol", type=float, default=1e-6, show_default=True)
@click.option("--max-iters", type=int, default=500, show_default=True)
@click.option("--out-csv", type=click.Path(), required=True)
@click.option("--out-json", type=click.Path(), required=True)
def compare_algos_cmd(rows, cols, true_rank, sigma, na, seed, entropy, datasets,
                      inits, tau, rank, grad_tol, max_iters, out_csv, out_json):
    """Race bfgs/lbfgs/cg over datasets with shared initializations."""
    started = time.perf_counter()
    seed = _resolve_seed(seed, entropy)
    spec = SimulationSpec(m=rows, n=cols, sigma=sigma, na_portion=na,
                          true_rank=true_rank, seed=seed)
    result = compare_algorithms(
        spec, datasets, inits, tau, rank,
        opts=OptimizeOptions(grad_tol=grad_tol, max_iters=max_iters),
    )
    header = ["dataset"]
    for algo in ALGORITHMS:
        header += [f"{algo}_loss", f"{algo}_seconds", f"{algo}_iterations"]
    header += ["min_loss_algorithm", "min_time_algorithm", "loss_spread"]
    _write_csv(Path(out_csv), header, [[row[h] for h in header] for row in result.per_dataset])
    _write_json(Path(out_json), {"summary": result.summary, "max_loss_spread": result.max_loss_spread})
    _manifest(Path(out_csv), "bench compare-algos",
              {"spec": asdict(spec), "datasets": datasets, "inits": inits,
               "tau": tau, "rank": rank, "grad_tol": grad_tol, "max_iters": max_iters},
              [seed], [], [out_csv, out_json], started)
    for row in result.summary:
        click.echo(
            f"{row['algorithm']}: min-loss wins {row['n_min_loss']}, "
            f"min-time wins {row['n_min_time']}, mean loss {_fmt(row['mean_loss'])}"
        )


@bench.command(name="resilience")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help="Normalized matrix CSV (e.g. from simulate + fit preprocessing).")
@click.option("--header/--no-header", default=False)
@click.option("--trials", type=int, default=10, show_default=True)
@click.option("--tau", type=float, default=0.2, show_default=True)
@click.option("--rank", type=int, default=3, show_default=True)
@click.option("--algorithm", type=click.Choice(ALGORITHMS), default="cg", show_default=True)
@click.option("--grad-tol", type=float, default=1e-9, show_default=True)
@click.option("--max-iters", type=int, default=5000, show_default=True)
@_with_options(_seed_options)
@click.option("--out-loss-csv", type=click.Path(), required=True)
@click.option("--out-mad-csv", type=click.Path(), required=True)
def resilience_cmd(input_path, header, trials, tau, rank, algorithm, grad_tol,
                   max_iters, seed, entropy, out_loss_csv, out_mad_csv):
    """Pairwise loss gaps and fitted-matrix MADs across random initializations."""
    started = time.perf_counter()
    seed = _resolve_seed(seed, entropy)
    x = read_matrix_csv(input_path, header=header)
    config = FitConfig(
        tau=tau, k=rank,
        opts=OptimizeOptions(algorithm=algorithm, grad_tol=grad_tol, max_iters=max_iters),
        seed=seed,
    )
    result = init_resilience(x, config, trials)

    def matrix_rows(mat):
        return [[i] + list(mat[i]) for i in range(mat.shape[0])]

    header_row = ["trial"] + [f"t{j}" for j in range(trials)]
    _write_csv(Path(out_loss_csv), header_row, matrix_rows(result.loss_diff))
    _write_csv(Path(out_mad_csv), header_row, matrix_rows(result.mad))
    _manifest(Path(out_loss_csv), "bench resilience",
              {"input": str(input_path), "trials": trials, "tau": tau, "rank": rank,
               "algorithm": algorithm, "grad_tol": grad_tol, "max_iters": max_iters},
              [seed], [input_path], [out_loss_csv, out_mad_csv], started)
    iu = np.triu_indices(trials, 1)
    click.echo(
        f"max pairwise loss gap {_fmt(result.loss_diff[iu].max())}, "
        f"max MAD {_fmt(result.mad[iu].max())}"
    )


@bench.command(name="rank-sweep")
@_with_options(_sim_spec_options)
@click.option("--ranks", default="1,2,3,4", show_default=True)
@click.option("--tau", "--taus", "taus", default="0.1", show_default=True,
              help="Comma-separated tau values.")
@click.option("--algorithms", default="lbfgs,cg", show_default=True)
@click.option("--trials", type=int, default=10, show_default=True)
@click.option("--grad-tol", type=float, default=1e-6, show_default=True)
@click.option("--max-iters", type=int, default=500, show_default=True)
@click.option("--out-csv", type=click.Path(), required=True)
@click.option("--out-json", type=click.Path(), required=True)
def rank_sweep_cmd(rows, cols, true_rank, sigma, na, seed, entropy, ranks, taus,
                   algorithms, trials, grad_tol, max_iters, out_csv, out_json):
    """Mean loss/iterations/time per (tau, rank, algorithm) over seeded trials."""
    started = time.perf_counter()
    seed = _resolve_seed(seed, entropy)
    spec = SimulationSpec(m=rows, n=cols, sigma=sigma, na_portion=na,
                          true_rank=true_rank, seed=seed)
    result = rank_sweep(
        spec,
        _parse_list(taus, float),
        _parse_list(ranks, int),
        _parse_algorithms(algorithms),
        n_trials=trials,
        opts=OptimizeOptions(grad_tol=grad_tol, max_iters=max_iters),
    )
    header = ["trial", "tau", "rank", "algorithm", "loss", "iterations", "seconds"]
    _write_csv(Path(out_csv), header, [[rec[h] for h in header] for rec in result.records])
    _write_json(Path(out_json), {"aggregate": result.aggregate})
    _manifest(Path(out_csv), "bench rank-sweep",
              {"spec": asdict(spec), "ranks": ranks, "taus": taus,
               "algorithms": algorithms, "trials": trials,
               "grad_tol": grad_tol, "max_iters": max_iters},
              [seed], [], [out_csv, out_json], started)
    for row in result.aggregate:
        click.echo(
            f"tau {row['tau']:g} k {row['rank']} {row['algorithm']}: "
            f"mean loss {_fmt(row['mean_loss'])}, mean iters {row['mean_iterations']:.1f}"
        )


def main(argv=None) -> int:
    """Entry point with spec'd exit codes (0 ok, 1 usage, 2 data/convergence)."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.exceptions.Abort:
        return 1
    except (ExpectileMFError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # The config types (FitConfig, OptimizeOptions, SimulationSpec, Tau)
        # and fit's pivot range check reject option values with ValueError;
        # input readers raise ExpectileMFError.
        print(f"Error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
