"""End-to-end fit orchestration.

A fit seeds the additive terms with the row/column means of the normalized
data, draws the factors from a standard normal stream, minimizes the
asymmetric loss, canonicalizes the winner, and optionally fixes the rank-1
sign at a pivot row. Sweeps over tau anchor at tau = 0.5 and warm-start the
other levels from that solution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, UnnormalizedDataWarning
from .expectiles import Tau, as_tau
from .masked import MaskedMatrix, global_stats
from .model import FactorModel, Objective, canonicalize, flatten, orient_rank1, unflatten
from .optim import OptimizeOptions, OptimizeResult, minimize

# Looser than any real normalization, tight enough to catch raw data.
_NORMALIZED_MEAN_SLACK = 0.05
_NORMALIZED_STD_SLACK = 0.05


@dataclass
class FitConfig:
    tau: "float | Tau" = 0.5
    k: int = 1
    opts: OptimizeOptions = field(default_factory=OptimizeOptions)
    n_restarts: int = 1
    seed: int = 0
    orient_pivot: "int | None" = None
    warm_start: "FactorModel | None" = None

    def __post_init__(self):
        self.tau = as_tau(self.tau)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if self.warm_start is not None and self.n_restarts > 1:
            raise ValueError("a warm start runs one optimization; it cannot take n_restarts > 1")


@dataclass
class FitReport:
    model: FactorModel
    final_loss: float
    iterations: int
    function_evals: int
    elapsed_seconds: float
    status: str
    restart_losses: list[float]


def initial_model(row_means, col_means, k: int, seed) -> FactorModel:
    """Additive terms from the data means, factors i.i.d. standard normal.

    The factor entries are drawn as one flat vector (u block then v block,
    row-major) so the draw matches the flattened parameter layout.
    """
    row_means = np.asarray(row_means, dtype=float)
    col_means = np.asarray(col_means, dtype=float)
    n, p = row_means.size, col_means.size
    gen = np.random.Generator(np.random.PCG64(seed))
    uv = gen.standard_normal(n * k + p * k)
    return FactorModel(row_means, col_means, uv[: n * k].reshape(n, k), uv[n * k :].reshape(p, k))


def _warn_if_unnormalized(x: MaskedMatrix) -> None:
    try:
        mean, std = global_stats(x)
    except Exception:
        return
    if abs(mean) > _NORMALIZED_MEAN_SLACK or abs(std - 1.0) > _NORMALIZED_STD_SLACK:
        warnings.warn(
            f"data does not look normalized (mean {mean:.3g}, std {std:.3g}); "
            "fitting proceeds on the given scale",
            UnnormalizedDataWarning,
        )


def fit(x: MaskedMatrix, row_means, col_means, config: FitConfig) -> FitReport:
    """Best-of-restarts fit of the factor model to normalized data.

    A warm start overrides every initialization (including the additive
    terms) and runs a single optimization. Restart winners
    are chosen by final loss with ties broken by restart index.
    """
    _warn_if_unnormalized(x)
    n, p, k = x.n_rows, x.n_cols, config.k
    row_means = np.asarray(row_means, dtype=float)
    col_means = np.asarray(col_means, dtype=float)
    if row_means.size != n or col_means.size != p:
        raise DimensionMismatch(
            f"means have lengths ({row_means.size}, {col_means.size}), data is {n}x{p}"
        )
    objective = Objective(x, config.tau, k)

    if config.warm_start is not None:
        ws = config.warm_start
        if (ws.n, ws.p, ws.k) != (n, p, k):
            raise DimensionMismatch(
                f"warm start is ({ws.n}, {ws.p}, {ws.k}), expected ({n}, {p}, {k})"
            )
        starts = [flatten(ws)]
    else:
        children = np.random.SeedSequence(config.seed).spawn(config.n_restarts)
        starts = [
            flatten(initial_model(row_means, col_means, k, child)) for child in children
        ]

    results: list[OptimizeResult] = [minimize(objective, x0, config.opts) for x0 in starts]
    losses = [res.final_loss for res in results]
    best = results[int(np.argmin(losses))]

    model = canonicalize(unflatten(best.x_final, n, p, k))
    if k == 1 and config.orient_pivot is not None:
        model = orient_rank1(model, config.orient_pivot)
    return FitReport(
        model=model,
        final_loss=best.final_loss,
        iterations=best.iterations,
        function_evals=best.function_evals,
        elapsed_seconds=best.elapsed_seconds,
        status=best.status,
        restart_losses=losses,
    )


def tau_sweep(x: MaskedMatrix, row_means, col_means, config: FitConfig, taus) -> list[FitReport]:
    """Fit a list of asymmetry levels, warm-starting from the tau = 0.5 fit.

    The 0.5 anchor runs with the configured restart budget (even when 0.5 is
    not among the requested levels); every other level runs once from the
    anchor solution. Reports come back in the order of taus.
    """
    tau_values = [as_tau(t).value for t in taus]
    if not tau_values:
        raise ValueError("taus must be non-empty")
    anchor = fit(x, row_means, col_means, replace(config, tau=0.5, warm_start=None))
    reports = []
    for t in tau_values:
        if t == 0.5:
            reports.append(anchor)
        else:
            warm_cfg = replace(config, tau=t, n_restarts=1, warm_start=anchor.model)
            reports.append(fit(x, row_means, col_means, warm_cfg))
    return reports
