"""Scalar and marginal expectiles.

An expectile at level tau minimizes the asymmetrically weighted squared
deviation: positive residuals weighted tau, negative weighted 1 - tau.
The tau = 0.5 expectile is the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyRow, EmptySample, NonConvergence
from .masked import MaskedMatrix


@dataclass(frozen=True)
class Tau:
    """Asymmetry level, strictly between 0 and 1."""

    value: float

    def __post_init__(self):
        value = float(self.value)
        if not 0.0 < value < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {value}")
        object.__setattr__(self, "value", value)


def as_tau(tau: "float | Tau") -> Tau:
    return tau if isinstance(tau, Tau) else Tau(float(tau))


def scalar_expectile(
    sample,
    tau: "float | Tau",
    tol: float = 1e-10,
    max_iters: int = 1000,
) -> float:
    """Expectile of a finite sample by iteratively reweighted means.

    Fixed point mu <- sum(w * x) / sum(w) with w_i = tau when x_i >= mu,
    else 1 - tau; converges geometrically since the objective is smooth and
    strictly convex. Stops when |mu_next - mu| <= tol * (1 + |mu|).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise EmptySample("cannot take the expectile of an empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    t = as_tau(tau).value
    mu = float(np.mean(x))
    for _ in range(max_iters):
        w = np.where(x >= mu, t, 1.0 - t)
        mu_next = float(np.sum(w * x) / np.sum(w))
        if abs(mu_next - mu) <= tol * (1.0 + abs(mu)):
            return mu_next
        mu = mu_next
    raise NonConvergence(f"expectile solver did not converge in {max_iters} iterations")


def marginal_expectile_curves(
    x: MaskedMatrix,
    taus,
    tol: float = 1e-10,
) -> np.ndarray:
    """Row-wise expectiles over observed entries, one column per tau.

    Output[i, j] is the expectile of row i's observed values at taus[j].
    """
    tau_values = [as_tau(t).value for t in taus]
    out = np.empty((x.n_rows, len(tau_values)))
    for i in range(x.n_rows):
        obs = x.values[i, x.mask[i]]
        if obs.size == 0:
            raise EmptyRow(i)
        for j, t in enumerate(tau_values):
            out[i, j] = scalar_expectile(obs, t, tol=tol)
    return out
