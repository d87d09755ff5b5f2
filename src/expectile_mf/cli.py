"""Command-line interface.

Every seeded subcommand takes --seed (default 20160229) and records it in
its manifest. Matrix CSVs have no header row and hold data on its own scale;
every command that fits one (fit, tau-sweep, bench resilience) normalizes
what it reads, and a model JSON records that normalization. Outputs carry
17 significant digits, and a manifest JSON next to the primary output
records every option as parsed, the values resolved from the input, the
seed and the input files. Exit codes: 0 success, 1 usage error,
2 data error. A fit that does not converge exits 0 and prints one
warning: line.
"""

from __future__ import annotations

import csv
import json
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import (
    band_curves,
    compare_algorithms,
    icc,
    init_resilience,
    rank_sweep,
)
from .errors import ExpectileMFError, ParseError
from .expectiles import check_tau, marginal_expectile_curves
from .ingest import SEGMENTS_PER_DAY, bin_records, read_records_csv
from .masked import (
    csv_records,
    drop_sparse_columns,
    naming,
    normalize,
    open_input,
    read_matrix_csv,
    write_matrix_csv,
)
from .model import model_from_dict, model_to_dict
from .optim import ALGORITHMS, STATUS_GRAD_TOL, OptimizeOptions
from .pipeline import FitConfig, FitReport, check_warm_start, fit, tau_sweep
from .simulate import SimulationSpec, generate

DEFAULT_SEED = 20160229
ORIENT_PIVOT_288 = 72  # about six a.m. in a day of SEGMENTS_PER_DAY five-minute segments


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path, header, rows) -> None:
    """csv.writer leaves a lone carriage return unquoted, where RFC 4180 quotes
    a field holding a line break, so a row that holds one is quoted in full."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for row in rows:
            cells = [c if isinstance(c, (str, int)) else _fmt(c) for c in row]
            has_cr = any(isinstance(c, str) and "\r" in c for c in cells)
            (quote_all if has_cr else writer).writerow(cells)


def _write_records(path, records) -> None:
    """CSV of dicts that share their keys, in the first dict's key order."""
    _write_csv(path, list(records[0]), [list(rec.values()) for rec in records])


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _manifest(primary_output, subcommand, outputs, **resolved) -> None:
    """Write <primary_output>.manifest.json for the running command: every parsed
    option in declaration order with the resolved values merged over it, and
    every input file given."""
    ctx = click.get_current_context()
    config = {p.name: ctx.params[p.name] for p in ctx.command.params}
    doc = {
        "subcommand": subcommand,
        "config": {**config, **resolved},
        "seeds": [config["seed"]] if "seed" in config else [],
        "version": __version__,
        "inputs": [config[p.name] for p in ctx.command.params if config[p.name] is not None
                   and isinstance(p.type, click.Path) and p.type.exists],
        "outputs": [str(p) for p in outputs],
        "wall_time_seconds": time.perf_counter() - ctx.meta["started"],
    }
    path = Path(primary_output)
    _write_json(path.with_name(path.name + ".manifest.json"), doc)


def _parse_list(text, kind) -> list:
    """Non-empty comma-separated list of kind (float, int or str)."""
    try:
        values = [kind(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise click.UsageError(f"expected comma-separated {kind.__name__}s, got {text!r}")
    return values


def _with_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


_seed_option = click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
                            help="PRNG seed.")
_sim_spec_options = [
    click.option("--rows", type=int, default=200, show_default=True),
    click.option("--cols", type=int, default=200, show_default=True),
    click.option("--true-rank", type=int, default=2, show_default=True),
    click.option("--sigma", type=float, default=0.3, show_default=True),
    click.option("--na", type=float, default=0.3, show_default=True),
    _seed_option,
]


@click.group()
@click.version_option(__version__)
def cli():
    """Low-rank expectile matrix fitting: simulate, fit, analyze."""
    click.get_current_context().meta["started"] = time.perf_counter()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@cli.command()
@_with_options(_sim_spec_options)
@click.option("--out", type=click.Path(), required=True, help="Matrix CSV path.")
def simulate(rows, cols, true_rank, sigma, na, seed, out):
    """Generate a seeded synthetic matrix plus a JSON sidecar of the truth."""
    spec = SimulationSpec(m=rows, n=cols, sigma=sigma, na_portion=na, true_rank=true_rank,
                          seed=seed)
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
    _manifest(out, "simulate", [out, sidecar])
    click.echo(f"wrote {out} and {sidecar}")


# ---------------------------------------------------------------------------
# fit / tau-sweep
# ---------------------------------------------------------------------------


def _fit_config(n_rows, tau, rank, algorithm, restarts, seed, grad_tol, max_iters,
                orient_pivot, warm=None) -> FitConfig:
    """FitConfig from the shared fit options; a rank-1 fit of SEGMENTS_PER_DAY
    rows pivots on row ORIENT_PIVOT_288."""
    if orient_pivot is None and n_rows == SEGMENTS_PER_DAY and rank == 1:
        orient_pivot = ORIENT_PIVOT_288
    return FitConfig(
        tau=tau, k=rank,
        opts=OptimizeOptions(algorithm=algorithm, grad_tol=grad_tol, max_iters=max_iters),
        n_restarts=restarts, seed=seed, orient_pivot=orient_pivot, warm_start=warm,
    )


def _read_normalized(path):
    """The matrix CSV at path, normalized; a data error names the file."""
    x = read_matrix_csv(path)
    with naming(path):
        return normalize(x)


def _write_fit(model_path, report_path, tau, report: FitReport, info) -> list[Path]:
    """Write a fit's model and report JSONs (warning on stderr if unconverged); return both."""
    _write_json(model_path, model_to_dict(report.model, tau, info))
    _write_json(report_path, {key: val for key, val in vars(report).items()
                              if key not in ("x_final", "model")})
    if report.status != STATUS_GRAD_TOL:
        click.echo(f"warning: fit at tau {tau:g} stopped with status {report.status} "
                   f"after {report.iterations} iterations", err=True)
    return [model_path, report_path]


_fit_options = [
    click.option("--input", "input_path", type=click.Path(exists=True), required=True),
    click.option("--rank", type=int, default=1, show_default=True),
    click.option("--algorithm", type=click.Choice(ALGORITHMS), default="lbfgs", show_default=True),
    click.option("--restarts", type=int, default=1, show_default=True),
    _seed_option,
    click.option("--grad-tol", type=float, default=1e-6, show_default=True),
    click.option("--max-iters", type=int, default=500, show_default=True),
    click.option("--orient-pivot", type=int, default=None,
                 help="Rank-1 sign pivot row (default 72 for a rank-1 fit of 288 rows)."),
]


@cli.command(name="fit")
@_with_options(_fit_options)
@click.option("--tau", type=float, default=0.5, show_default=True)
@click.option("--warm-start", "warm_start_path", type=click.Path(exists=True), default=None)
@click.option("--output", type=click.Path(), required=True, help="Model JSON path.")
def fit_cmd(input_path, rank, algorithm, restarts, seed, grad_tol, max_iters, orient_pivot,
            tau, warm_start_path, output):
    """Fit one model; writes model JSON plus a report JSON."""
    x, info = _read_normalized(input_path)
    warm = None
    if warm_start_path is not None:
        with open_input(warm_start_path) as fh:
            warm, _, _ = model_from_dict(json.load(fh))
            check_warm_start(warm, x.n_rows, x.n_cols, rank)
    config = _fit_config(x.n_rows, tau, rank, algorithm, restarts, seed, grad_tol, max_iters,
                         orient_pivot, warm)
    report = fit(x, info.row_means, info.col_means, config)
    output = Path(output)
    outputs = _write_fit(output, output.with_name(output.stem + ".report.json"), tau, report, info)
    _manifest(output, "fit", outputs, orient_pivot=config.orient_pivot)
    click.echo(f"final loss {_fmt(report.final_loss)} ({report.status}); wrote {output}")


@cli.command(name="tau-sweep")
@_with_options(_fit_options)
@click.option("--taus", default="0.1,0.5,0.9", show_default=True)
@click.option("--output-dir", type=click.Path(), required=True)
def tau_sweep_cmd(input_path, rank, algorithm, restarts, seed, grad_tol, max_iters,
                  orient_pivot, taus, output_dir):
    """Fit a list of taus, warm-starting each from the tau = 0.5 solution."""
    tau_values = _parse_list(taus, float)
    for i, tau in enumerate(tau_values):
        for other in tau_values[:i]:
            if f"{other:g}" == f"{tau:g}":
                raise ValueError(f"taus {other!r} and {tau!r} both write model_tau{tau:g}.json")
        check_tau(tau)
    x, info = _read_normalized(input_path)
    config = _fit_config(x.n_rows, 0.5, rank, algorithm, restarts, seed, grad_tol, max_iters,
                         orient_pivot)
    reports = tau_sweep(x, info.row_means, info.col_means, config, tau_values)
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    summary_rows = []
    for tau, report in zip(tau_values, reports):
        outputs += _write_fit(out_dir / f"model_tau{tau:g}.json",
                              out_dir / f"report_tau{tau:g}.json", tau, report, info)
        summary_rows.append([tau, report.final_loss, report.iterations, report.status])
    summary_path = out_dir / "sweep_summary.csv"
    _write_csv(summary_path, ["tau", "final_loss", "iterations", "status"], summary_rows)
    outputs.append(summary_path)
    _manifest(summary_path, "tau-sweep", outputs, orient_pivot=config.orient_pivot)
    click.echo(f"wrote {len(reports)} fits under {out_dir}")


# ---------------------------------------------------------------------------
# expectiles / icc / ingest / band-curves
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--taus", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", show_default=True)
@click.option("--out", type=click.Path(), required=True)
def expectiles(input_path, taus, out):
    """Marginal expectile curves per matrix row (long CSV: row_index, tau, expectile)."""
    tau_values = _parse_list(taus, float)
    x = read_matrix_csv(input_path)
    with naming(input_path):
        curves = marginal_expectile_curves(x, tau_values)
    rows = [
        [i, tau_values[j], curves[i, j]]
        for i in range(curves.shape[0])
        for j in range(len(tau_values))
    ]
    _write_csv(Path(out), ["row_index", "tau", "expectile"], rows)
    _manifest(out, "expectiles", [out])
    click.echo(f"wrote {out}")


@cli.command(name="icc")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help="Two-column CSV: group_id, value (no header).")
@click.option("--out", type=click.Path(), required=True, help="JSON output path.")
def icc_cmd(input_path, out):
    """Between-group share of variance for grouped values."""
    groups, values = [], []
    with open_input(input_path) as fh:
        for line_no, row in csv_records(fh):
            fields = [field.strip() for field in row]
            if len(fields) != 2:
                raise ParseError(line_no, "expected 'group_id,value'")
            groups.append(fields[0])
            try:
                value = float(fields[1])
            except ValueError:
                raise ParseError(line_no, f"bad value {fields[1]!r}") from None
            if not np.isfinite(value):
                raise ParseError(line_no, f"non-finite value {value!r}")
            values.append(value)
        value = icc(values, groups)
    _write_json(Path(out), {"icc": value, "n_values": len(values), "n_groups": len(set(groups))})
    _manifest(out, "icc", [out])
    click.echo(f"icc {_fmt(value)}")


@cli.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True, help="Matrix CSV path.")
@click.option("--labels", "labels_path", type=click.Path(), required=True)
@click.option("--max-missing", type=float, default=0.7, show_default=True)
def ingest(input_path, out, labels_path, max_missing):
    """Bin heart-rate records into the 288 x person-days matrix in bpm and drop
    the person-days missing more than --max-missing of their segments. The input's
    header names person_id, timestamp and bpm, in any order."""
    records = read_records_csv(input_path)
    pdm = bin_records(records)
    with naming(input_path):
        x, kept = drop_sparse_columns(pdm.matrix, max_missing)
    write_matrix_csv(x, out)
    _write_csv(
        Path(labels_path),
        ["column_index", "person_id", "date"],
        [[j, pid, day.isoformat()] for j, (pid, day) in
         enumerate(pdm.column_labels[i] for i in kept)],
    )
    _manifest(out, "ingest", [out, labels_path],
              columns_before=pdm.matrix.n_cols, columns_after=x.n_cols)
    click.echo(f"binned {pdm.matrix.n_cols} person-days, kept {x.n_cols}; wrote {out}")


@cli.command(name="band-curves")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def band_curves_cmd(model_path, out):
    """Lower/center/upper day curves from a rank-1 model (long CSV: x, series, value)."""
    with open_input(model_path) as fh:
        model, _, info = model_from_dict(json.load(fh))
        lower, center, upper = band_curves(model, info)
    rows = []
    for name, curve in (("lower", lower), ("center", center), ("upper", upper)):
        rows += [[i, name, curve[i]] for i in range(curve.size)]
    _write_csv(Path(out), ["x", "series", "value"], rows)
    _manifest(out, "band-curves", [out])
    click.echo(f"wrote {out}")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@cli.group()
def bench():
    """Seeded simulation studies (CSV tables plus a JSON summary)."""


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
def compare_algos_cmd(rows, cols, true_rank, sigma, na, seed, datasets,
                      inits, tau, rank, grad_tol, max_iters, out_csv, out_json):
    """Race bfgs/lbfgs/cg over datasets with shared initializations."""
    spec = SimulationSpec(m=rows, n=cols, sigma=sigma, na_portion=na,
                          true_rank=true_rank, seed=seed)
    result = compare_algorithms(
        spec, datasets, inits, tau, rank,
        opts=OptimizeOptions(grad_tol=grad_tol, max_iters=max_iters),
    )
    _write_records(Path(out_csv), result.per_dataset)
    _write_json(Path(out_json), {"summary": result.summary, "max_loss_spread": result.max_loss_spread})
    _manifest(out_csv, "bench compare-algos", [out_csv, out_json])
    for row in result.summary:
        click.echo(
            f"{row['algorithm']}: min-loss wins {row['n_min_loss']}, "
            f"min-time wins {row['n_min_time']}, mean loss {_fmt(row['mean_loss'])}"
        )


@bench.command(name="resilience")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help="Matrix CSV; normalized before fitting.")
@click.option("--trials", type=int, default=10, show_default=True)
@click.option("--tau", type=float, default=0.2, show_default=True)
@click.option("--rank", type=int, default=3, show_default=True)
@click.option("--algorithm", type=click.Choice(ALGORITHMS), default="cg", show_default=True)
@click.option("--grad-tol", type=float, default=1e-9, show_default=True)
@click.option("--max-iters", type=int, default=5000, show_default=True)
@_seed_option
@click.option("--out-loss-csv", type=click.Path(), required=True)
@click.option("--out-mad-csv", type=click.Path(), required=True)
def resilience_cmd(input_path, trials, tau, rank, algorithm, grad_tol,
                   max_iters, seed, out_loss_csv, out_mad_csv):
    """Pairwise loss gaps and fitted-matrix MADs across random initializations."""
    x, _ = _read_normalized(input_path)
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
    _manifest(out_loss_csv, "bench resilience", [out_loss_csv, out_mad_csv])
    iu = np.triu_indices(trials, 1)
    click.echo(
        f"max pairwise loss gap {_fmt(result.loss_diff[iu].max())}, "
        f"max MAD {_fmt(result.mad[iu].max())}"
    )


@bench.command(name="rank-sweep")
@_with_options(_sim_spec_options)
@click.option("--ranks", default="1,2,3,4", show_default=True)
@click.option("--taus", default="0.1", show_default=True)
@click.option("--algorithms", default="lbfgs,cg", show_default=True)
@click.option("--trials", type=int, default=10, show_default=True)
@click.option("--grad-tol", type=float, default=1e-6, show_default=True)
@click.option("--max-iters", type=int, default=500, show_default=True)
@click.option("--out-csv", type=click.Path(), required=True)
@click.option("--out-json", type=click.Path(), required=True)
def rank_sweep_cmd(rows, cols, true_rank, sigma, na, seed, ranks, taus,
                   algorithms, trials, grad_tol, max_iters, out_csv, out_json):
    """Mean loss/iterations/time per (tau, rank, algorithm) over seeded trials."""
    spec = SimulationSpec(m=rows, n=cols, sigma=sigma, na_portion=na,
                          true_rank=true_rank, seed=seed)
    result = rank_sweep(
        spec,
        _parse_list(taus, float),
        _parse_list(ranks, int),
        _parse_list(algorithms, str),
        n_trials=trials,
        opts=OptimizeOptions(grad_tol=grad_tol, max_iters=max_iters),
    )
    _write_records(Path(out_csv), result.records)
    _write_json(Path(out_json), {"aggregate": result.aggregate})
    _manifest(out_csv, "bench rank-sweep", [out_csv, out_json])
    for row in result.aggregate:
        click.echo(
            f"tau {row['tau']:g} k {row['rank']} {row['algorithm']}: "
            f"mean loss {_fmt(row['mean_loss'])}, mean iters {row['mean_iterations']:.1f}"
        )


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # One stderr line per warning, like the convergence warnings, with no source path.
    click.echo(f"warning: {message}", err=True)


def main(argv=None) -> int:
    """Entry point with spec'd exit codes: 0 ok, also for a fit that does not
    converge; 1 usage error; 2 data error."""
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
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
            # A bad option value (rejected by check_tau, the config types,
            # the pivot range check or tau-sweep's collision check) is a
            # ValueError; bad data is an ExpectileMFError.
            print(f"Error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
