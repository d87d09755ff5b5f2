"""End-to-end fit orchestration.

A fit seeds the additive terms with the row/column means of the normalized
data, draws the factors from a standard normal stream, minimizes the
asymmetric loss (handing the optimizer the loss's Jacobi diagonal, which
lbfgs and bfgs use to scale their steps), canonicalizes the winner, and
optionally fixes the rank-1 sign at a pivot row. Sweeps over tau anchor at
tau = 0.5 and warm-start the other levels from that solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ExpectileMFError
from .expectiles import check_tau
from .masked import MaskedMatrix
from .model import FactorModel, Objective, canonicalize, flatten, orient_rank1, unflatten
from .optim import OptimizeOptions, OptimizeResult, minimize


@dataclass
class FitConfig:
    tau: float = 0.5
    k: int = 1
    opts: OptimizeOptions = field(default_factory=OptimizeOptions)
    n_restarts: int = 1
    seed: int = 0
    orient_pivot: "int | None" = None
    warm_start: "FactorModel | None" = None

    def __post_init__(self):
        self.tau = check_tau(self.tau)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if self.warm_start is not None and self.n_restarts > 1:
            raise ValueError("a warm start runs one optimization; it cannot take n_restarts > 1")
        if self.orient_pivot is not None and self.k != 1:
            raise ValueError(f"orient_pivot applies only to k = 1, got k = {self.k}")


@dataclass
class FitReport(OptimizeResult):
    """The winning restart's result, its model, and every restart's final loss."""

    model: FactorModel
    restart_losses: list[float]


def initial_model(row_means, col_means, k: int, seed) -> FactorModel:
    """Additive terms from the data means, factors i.i.d. standard normal.

    The factor entries are drawn as one flat vector, which takes the place of
    u and v in the flat parameter layout that unflatten reads.
    """
    n, p = np.size(row_means), np.size(col_means)
    gen = np.random.Generator(np.random.PCG64(seed))
    return unflatten(np.concatenate([row_means, col_means, gen.standard_normal((n + p) * k)]),
                     n, p, k)


def check_warm_start(model: FactorModel, n: int, p: int, k: int) -> None:
    """Raise unless a warm-start model has the fit's shape (n, p, k)."""
    if (model.n, model.p, model.k) != (n, p, k):
        raise ExpectileMFError(
            f"warm start is ({model.n}, {model.p}, {model.k}), expected ({n}, {p}, {k})"
        )


def fit(x: MaskedMatrix, row_means, col_means, config: FitConfig) -> FitReport:
    """Best-of-restarts fit of the factor model to normalized data, whose scale
    it does not check.

    A warm start overrides every initialization (including the additive
    terms) and runs a single optimization. Restart winners
    are chosen by final loss with ties broken by restart index.
    """
    n, p, k = x.n_rows, x.n_cols, config.k
    if config.orient_pivot is not None and not 0 <= config.orient_pivot < n:
        raise ValueError(f"orient_pivot {config.orient_pivot} out of range for {n} rows")
    row_means = np.asarray(row_means, dtype=float)
    col_means = np.asarray(col_means, dtype=float)
    if row_means.size != n or col_means.size != p:
        raise ExpectileMFError(
            f"means have lengths ({row_means.size}, {col_means.size}), data is {n}x{p}"
        )
    objective = Objective(x, config.tau, k)

    if config.warm_start is not None:
        check_warm_start(config.warm_start, n, p, k)
        starts = [flatten(config.warm_start)]
    else:
        children = np.random.SeedSequence(config.seed).spawn(config.n_restarts)
        starts = [
            flatten(initial_model(row_means, col_means, k, child)) for child in children
        ]

    opts = replace(config.opts, diagonal=objective.diagonal)
    results: list[OptimizeResult] = [minimize(objective, x0, opts) for x0 in starts]
    losses = [res.final_loss for res in results]
    best = results[int(np.argmin(losses))]

    model = canonicalize(unflatten(best.x_final, n, p, k))
    if config.orient_pivot is not None:
        model = orient_rank1(model, config.orient_pivot)
    return FitReport(**vars(best), model=model, restart_losses=losses)


def tau_sweep(x: MaskedMatrix, row_means, col_means, config: FitConfig, taus) -> list[FitReport]:
    """Fit a list of asymmetry levels, warm-starting from the tau = 0.5 fit.

    The 0.5 anchor runs with the configured restart budget (even when 0.5 is
    not among the requested levels); every other level runs once from the
    anchor solution. Reports come back in the order of taus.
    """
    tau_values = [check_tau(t) for t in taus]
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
