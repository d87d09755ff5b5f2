"""End-to-end fit orchestration.

A fit seeds the additive terms with the row/column means of the normalized
data. Restart 0 takes its factors from the top singular triplets of the
zero-filled residual (the spectral start, a deterministic function of the
data and k); restarts 1 and later draw them from seeded standard normal
streams. Each restart minimizes the asymmetric loss (handing the optimizer
the loss's Jacobi diagonal, which lbfgs and bfgs use to scale their steps);
the fit canonicalizes the winner and optionally fixes the rank-1 sign at a
pivot row. Sweeps over tau anchor at tau = 0.5 and warm-start the other
levels from that solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ExpectileMFError
from .expectiles import check_tau
from .masked import MaskedMatrix
from .model import FactorModel, Objective, canonicalize, check_shape, flatten, orient_rank1, unflatten
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


# Block power iterations of the spectral start. On 18 MCAR, col-block and
# shared-night masks (200x200 and 288x400, 60% missing), lbfgs fits from starts
# taken with 1 or 2 iterations stopped at max_iters in some cases, and from 4,
# 8 or 16 all met the gradient tolerance within 18 iterations; 8 keeps twice
# the smallest count that worked. Each iteration is two n x p x k products: at
# 288x2000 the whole start takes ~7 ms, a full SVD ~100 ms (one BLAS thread).
SPECTRAL_POWER_ITERS = 8


def initial_model(row_means, col_means, k: int, seed) -> FactorModel:
    """Additive terms from the data means, factors i.i.d. standard normal: the
    start of restarts 1 and later, and of the seeded studies.

    The factor entries are drawn as one flat vector, which takes the place of
    u and v in the flat parameter layout that unflatten reads.
    """
    n, p = np.size(row_means), np.size(col_means)
    gen = np.random.Generator(np.random.PCG64(seed))
    return unflatten(np.concatenate([row_means, col_means, gen.standard_normal((n + p) * k)]),
                     n, p, k)


def spectral_model(x: MaskedMatrix, row_means, col_means, k: int) -> FactorModel:
    """Additive terms from the data means, factors from the top k singular
    triplets of the residual: the start of restart 0.

    The residual R holds x - r 1' - 1 c' at observed cells and 0 elsewhere,
    divided by the observed share, and u = U_k sqrt(S_k), v = V_k sqrt(S_k).
    The triplets come from SPECTRAL_POWER_ITERS block power iterations from a
    fixed random block and a k x k SVD, so the start depends on x and k only.
    u and v are products with R, so a row or column with no observed cell
    gets a factor row of exactly 0. A factor column whose singular value is at
    or below numerical rank (a residual of rank below k, or k above min(n, p))
    is exactly 0: a stationary point for that column.
    """
    n, p = x.n_rows, x.n_cols
    resid = x.values - row_means[:, None]
    resid -= col_means
    resid *= x.mask
    resid /= x.observed_count() / resid.size
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((p, k)))[0]
    for _ in range(SPECTRAL_POWER_ITERS):
        q = np.linalg.qr(resid.T @ np.linalg.qr(resid @ q)[0])[0]
    block = resid @ q  # = P T, so the triplets are P W, s and q Z for T = W S Z'
    _, s, zt = np.linalg.svd(np.linalg.qr(block)[1])
    s = np.where(s > s[0] * max(n, p) * np.finfo(float).eps, s, 0.0)
    half = np.sqrt(s) / np.where(s > 0.0, s, 1.0)  # 1 / sqrt(s), or 0 at s = 0
    u = (block @ zt.T) * half  # P W S / sqrt(S)
    v = (resid.T @ u) * half**2  # R' U_k = V_k S
    pad = ((0, 0), (0, k - s.size))  # R has min(n, p) triplets; factor columns past them are 0
    return FactorModel(row_means, col_means, np.pad(u, pad), np.pad(v, pad))


def fit(x: MaskedMatrix, row_means, col_means, config: FitConfig) -> FitReport:
    """Best-of-restarts fit of the factor model to normalized data, whose scale
    it does not check.

    Restart 0 starts from spectral_model and restart i >= 1 from
    initial_model's draw from the i-th child of SeedSequence(config.seed), so
    the seed changes only fits with n_restarts > 1. A warm start overrides
    every initialization (including the additive terms) and runs a single
    optimization. Restart winners are chosen by final loss with ties broken
    by restart index.
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
        check_shape(config.warm_start, n, p, k)
        starts = [flatten(config.warm_start)]
    else:
        children = np.random.SeedSequence(config.seed).spawn(config.n_restarts)
        starts = [flatten(spectral_model(x, row_means, col_means, k))] + [
            flatten(initial_model(row_means, col_means, k, child)) for child in children[1:]
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

    The 0.5 anchor runs with the configured restarts or warm start (even when
    0.5 is not among the requested levels); every other level runs once from
    the anchor solution. Reports come back in the order of taus.
    """
    tau_values = [check_tau(t) for t in taus]
    if not tau_values:
        raise ValueError("taus must be non-empty")
    anchor = fit(x, row_means, col_means, replace(config, tau=0.5))
    reports = []
    for t in tau_values:
        if t == 0.5:
            reports.append(anchor)
        else:
            warm_cfg = replace(config, tau=t, n_restarts=1, warm_start=anchor.model)
            reports.append(fit(x, row_means, col_means, warm_cfg))
    return reports
