"""Scalar and marginal expectiles.

An expectile at level tau minimizes the asymmetrically weighted squared
deviation: positive residuals weighted tau, negative weighted 1 - tau.
The tau = 0.5 expectile is the mean.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ExpectileMFError
from .masked import MaskedMatrix

# Fixed-point stopping rule and iteration cap of scalar_expectile.
SOLVER_TOL = 1e-10
SOLVER_MAX_ITERS = 1000


def check_tau(tau) -> float:
    """tau as a float, strictly between 0 and 1."""
    value = float(tau)
    if not 0.0 < value < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {value}")
    return value


def scalar_expectile(sample, tau: float) -> float:
    """Expectile of a finite sample by iteratively reweighted means.

    Fixed point mu <- sum(w * x) / sum(w) with w_i = tau when x_i >= mu,
    else 1 - tau; converges geometrically since the objective is smooth and
    strictly convex. Stops when |mu_next - mu| <= SOLVER_TOL * (1 + |mu|).
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ExpectileMFError("cannot take the expectile of an empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    t = check_tau(tau)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(np.mean(x))
        for _ in range(SOLVER_MAX_ITERS):
            if not math.isfinite(mu):
                raise ExpectileMFError(f"values overflow: expectile iterate {mu}")
            w = np.where(x >= mu, t, 1.0 - t)
            mu_next = float(np.sum(w * x) / np.sum(w))
            if abs(mu_next - mu) <= SOLVER_TOL * (1.0 + abs(mu)):
                return mu_next
            mu = mu_next
    raise ExpectileMFError(
        f"expectile solver did not converge in {SOLVER_MAX_ITERS} iterations")


def marginal_expectile_curves(x: MaskedMatrix, taus) -> np.ndarray:
    """Row-wise expectiles over observed entries, one column per tau.

    Output[i, j] is the expectile of row i's observed values at taus[j].
    """
    tau_values = [check_tau(t) for t in taus]
    out = np.empty((x.n_rows, len(tau_values)))
    for i in range(x.n_rows):
        obs = x.values[i, x.mask[i]]
        if obs.size == 0:
            raise ExpectileMFError(f"row {i} has no observed entries")
        for j, t in enumerate(tau_values):
            out[i, j] = scalar_expectile(obs, t)
    return out
