"""Post-fit analyses and reproducible benchmark harnesses.

Holds the variance-ratio ICC, the three seeded simulation studies
(algorithm comparison, initialization resilience, rank sweep), and the
original-scale band curves. Every harness is deterministic given its seeds;
wall times are measured around the optimizer only and are the single
non-reproducible output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ExpectileMFError
from .expectiles import check_tau
from .masked import MaskedMatrix, NormalizationInfo, masked_col_means, masked_row_means, normalize
from .model import FactorModel, fitted_matrix
from .optim import ALGORITHMS, OptimizeOptions
from .pipeline import FitConfig, fit, initial_model
from .simulate import SimulationSpec, generate
from .util import derive_seeds

ALGORITHM_ORDER = ALGORITHMS


def icc(values, group_ids) -> float:
    """Between-group share of total variance, in [0, 1], of values labelled by group_ids.

    Computed as Var(group mean of each observation) / Var(values) with
    population variances, which weights group means by group size.
    """
    values = np.asarray(values, dtype=float)
    group_ids = np.asarray(group_ids)
    if values.ndim != 1 or group_ids.shape != values.shape:
        raise ValueError("values and group_ids must be 1-D and the same length")
    groups, inverse = np.unique(group_ids, return_inverse=True)
    if groups.size < 2:
        raise ExpectileMFError(f"need at least 2 distinct groups, got {groups.size}")
    grand = float(values.mean())
    total = float(np.mean((values - grand) ** 2))
    if total <= 0.0:
        raise ExpectileMFError("values have zero variance")
    sums = np.bincount(inverse, weights=values)
    counts = np.bincount(inverse)
    group_means = sums / counts
    expanded = group_means[inverse]
    between = float(np.mean((expanded - grand) ** 2))
    return between / total


def band_curves(model: FactorModel, info: NormalizationInfo):
    """(lower, center, upper) day curves for a rank-1 model.

    center is the row effect on the data's original scale, mean + std * r;
    the half-width is the std of the single v column times the u column
    scaled by std, so upper - lower equals twice that product.
    """
    if model.k != 1:
        raise ExpectileMFError(f"band curves require k = 1, got k = {model.k}")
    center = info.mean + info.std * model.r
    u_dn = model.u[:, 0] * info.std
    v_std = float(np.std(model.v[:, 0]))
    half = v_std * u_dn
    return center - half, center, center + half


# ---------------------------------------------------------------------------
# Seeded simulation studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairStudyResult:
    """Pairwise final-loss gaps and fitted-matrix MADs across restarts."""

    loss_diff: np.ndarray
    mad: np.ndarray


def init_resilience(x: MaskedMatrix, config: FitConfig, n_trials: int) -> PairStudyResult:
    """Fit n_trials times from distinct factor seeds and compare all pairs.

    MAD between two trials is the mean absolute difference of their fitted
    matrices over the observed cells of x.
    """
    if n_trials < 2:
        raise ValueError("n_trials must be >= 2")
    row_means = masked_row_means(x)
    col_means = masked_col_means(x)
    losses, fits = [], []
    for seed in derive_seeds(config.seed, n_trials):
        report = fit(x, row_means, col_means, replace(config, seed=seed, n_restarts=1))
        losses.append(report.final_loss)
        fits.append(fitted_matrix(report.model))
    losses = np.array(losses)
    t = n_trials
    loss_diff = np.abs(losses[:, None] - losses[None, :])
    mad = np.zeros((t, t))
    mask = x.mask
    for i in range(t):
        for j in range(i + 1, t):
            value = float(np.mean(np.abs(fits[i][mask] - fits[j][mask])))
            mad[i, j] = mad[j, i] = value
    return PairStudyResult(loss_diff=loss_diff, mad=mad)


def _race(xn: MaskedMatrix, info: NormalizationInfo, tau, starts, algorithms, opts):
    """Yield (algorithm, reports): each algorithm in turn fits every shared start."""
    for algo in algorithms:
        algo_opts = replace(opts, algorithm=algo)
        yield algo, [
            fit(xn, info.row_means, info.col_means,
                FitConfig(tau=tau, k=start.k, opts=algo_opts, warm_start=start))
            for start in starts
        ]


@dataclass(frozen=True)
class AlgoComparison:
    """Per-dataset best losses/times per algorithm, plus win tallies."""

    per_dataset: list[dict]
    summary: list[dict]
    max_loss_spread: float


def compare_algorithms(
    spec: SimulationSpec,
    n_datasets: int,
    n_inits: int,
    tau: float,
    k: int,
    opts: "OptimizeOptions | None" = None,
    algorithms=ALGORITHM_ORDER,
    threads: int = 1,  # perfbench passes threads=1; remove when perfbench next changes
) -> AlgoComparison:
    """Race the optimizers over fresh datasets with shared initializations.

    For each dataset, every algorithm starts from the same n_inits random
    factor draws; its loss is the best over inits and its time the summed
    optimizer wall time. Win counts take the argmin per dataset (ties to
    the earlier algorithm in the list).
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    if min(n_datasets, n_inits, k) < 1:
        raise ValueError("n_datasets, n_inits, and k must be positive")
    base_opts = opts if opts is not None else OptimizeOptions()
    per_dataset = []
    for d_index, d_seed in enumerate(derive_seeds(spec.seed, n_datasets)):
        sim = generate(replace(spec, seed=d_seed))
        xn, info = normalize(sim.x)
        starts = [initial_model(info.row_means, info.col_means, k, s)
                  for s in derive_seeds(d_seed, n_inits)]
        row = {"dataset": d_index}
        for algo, reports in _race(xn, info, tau, starts, algorithms, base_opts):
            row[f"{algo}_loss"] = min(rep.final_loss for rep in reports)
            row[f"{algo}_seconds"] = sum(rep.elapsed_seconds for rep in reports)
            row[f"{algo}_iterations"] = sum(rep.iterations for rep in reports)
        losses = [row[f"{a}_loss"] for a in algorithms]
        times = [row[f"{a}_seconds"] for a in algorithms]
        row["min_loss_algorithm"] = algorithms[int(np.argmin(losses))]
        row["min_time_algorithm"] = algorithms[int(np.argmin(times))]
        row["loss_spread"] = float(max(losses) - min(losses))
        per_dataset.append(row)
    summary = [
        {
            "algorithm": algo,
            "n_min_loss": sum(row["min_loss_algorithm"] == algo for row in per_dataset),
            "n_min_time": sum(row["min_time_algorithm"] == algo for row in per_dataset),
            "mean_loss": float(np.mean([row[f"{algo}_loss"] for row in per_dataset])),
            "mean_seconds": float(np.mean([row[f"{algo}_seconds"] for row in per_dataset])),
        }
        for algo in algorithms
    ]
    max_spread = float(max(row["loss_spread"] for row in per_dataset))
    return AlgoComparison(per_dataset=per_dataset, summary=summary, max_loss_spread=max_spread)


@dataclass(frozen=True)
class RankSweep:
    """Per-trial fit records and their per-(tau, rank, algorithm) means."""

    records: list[dict]
    aggregate: list[dict]


def rank_sweep(
    spec: SimulationSpec,
    taus,
    ranks,
    algorithms,
    n_trials: int = 10,
    opts: "OptimizeOptions | None" = None,
) -> RankSweep:
    """Fit every (tau, rank, algorithm) combination over seeded trials.

    Each trial draws a fresh dataset and one factor-init seed shared across
    ranks and algorithms, so iteration counts are comparable within a trial.
    Every argument is checked before any data is generated.
    """
    ranks = list(ranks)
    taus = [check_tau(t) for t in taus]
    algorithms = list(algorithms)
    if not ranks or not taus or not algorithms:
        raise ValueError("taus, ranks, and algorithms must be non-empty")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if min(ranks) < 1:
        raise ValueError(f"ranks must be >= 1, got {ranks}")
    base_opts = opts if opts is not None else OptimizeOptions()
    for algo in algorithms:
        replace(base_opts, algorithm=algo)  # OptimizeOptions rejects an unknown name
    for name, values in (("taus", taus), ("ranks", ranks), ("algorithms", algorithms)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must not repeat, got {values}")
    records = []
    groups: dict[tuple, list[dict]] = {}  # (tau, rank, algorithm) -> its records
    for t_index, child in enumerate(np.random.SeedSequence(spec.seed).spawn(n_trials)):
        data_child, init_child = child.spawn(2)
        data_seed = int(data_child.generate_state(1, np.uint64)[0])
        init_seed = int(init_child.generate_state(1, np.uint64)[0])
        sim = generate(replace(spec, seed=data_seed))
        xn, info = normalize(sim.x)
        for tau in taus:
            for rank in ranks:
                start = initial_model(info.row_means, info.col_means, rank, init_seed)
                for algo, (report,) in _race(xn, info, tau, [start], algorithms, base_opts):
                    rec = {"trial": t_index, "tau": tau, "rank": rank, "algorithm": algo,
                           "loss": report.final_loss, "iterations": report.iterations,
                           "seconds": report.elapsed_seconds}
                    records.append(rec)
                    groups.setdefault((tau, rank, algo), []).append(rec)
    aggregate = [
        {"tau": tau, "rank": rank, "algorithm": algo,
         **{f"mean_{name}": float(np.mean([rec[name] for rec in sub]))
            for name in ("loss", "iterations", "seconds")}}
        for (tau, rank, algo), sub in groups.items()
    ]
    return RankSweep(records=records, aggregate=aggregate)
