"""Additive-plus-multiplicative factor model and its asymmetric squared loss.

The representation is r 1' + 1 c' + u v' with row effects r (n), column
effects c (p), and rank-k factors u (n x k), v (p x k). The loss averages
asymmetrically weighted squared residuals over observed cells, and its
gradient is available in closed form wherever no residual sits exactly on
the weight switch (at the switch, the residual-zero convention applies).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyMask,
    LengthMismatch,
    RankNotOne,
    ZeroColumnWarning,
)
from .expectiles import Tau, as_tau
from .masked import MaskedMatrix, NormalizationInfo

ZERO_COLUMN_NORM = 1e-14


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FactorModel:
    """Parameters (r, c, u, v) of the fitted representation."""

    r: np.ndarray
    c: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        r, c, u, v = (_frozen(a) for a in (self.r, self.c, self.u, self.v))
        if r.ndim != 1 or c.ndim != 1 or u.ndim != 2 or v.ndim != 2:
            raise DimensionMismatch("expected r (n,), c (p,), u (n,k), v (p,k)")
        if u.shape != (r.size, u.shape[1]) or v.shape != (c.size, u.shape[1]):
            raise DimensionMismatch(
                f"inconsistent shapes: r {r.shape}, c {c.shape}, u {u.shape}, v {v.shape}"
            )
        if u.shape[1] < 1:
            raise DimensionMismatch("rank k must be >= 1")
        for name, a in (("r", r), ("c", c), ("u", u), ("v", v)):
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.r.size

    @property
    def p(self) -> int:
        return self.c.size

    @property
    def k(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class LossValue:
    """Loss plus its gradient flattened in (r, c, u row-major, v row-major) order."""

    loss: float
    gradient: np.ndarray


def fitted_matrix(model: FactorModel) -> np.ndarray:
    """Entry (i, j) = r_i + c_j + sum_l u_il v_jl."""
    return model.r[:, None] + model.c[None, :] + model.u @ model.v.T


def _check_dims(model: FactorModel, x: MaskedMatrix) -> None:
    if (model.n, model.p) != (x.n_rows, x.n_cols):
        raise DimensionMismatch(
            f"model is {model.n}x{model.p}, data is {x.n_rows}x{x.n_cols}"
        )


class Objective:
    """Loss and gradient of one fit as a function of the flat parameter vector.

    Built once per fit: holds the observed values with unobserved cells
    zeroed, the mask as floats, the observed count and two n x p work
    buffers that every call reuses. Calls return a fresh gradient array, so
    callers may keep it; calls on one instance must not overlap, since they
    share the buffers.

    Residuals >= 0 get weight tau, residuals < 0 get 1 - tau; unobserved
    cells contribute nothing to either the loss or the gradient. The
    arithmetic is that of the masked np.where form, bit for bit: masked
    cells hold exact zeros, and of max(resid, 0) * tau and
    min(resid, 0) * (1 - tau) one term is always exactly zero.
    """

    def __init__(self, x: MaskedMatrix, tau: "float | Tau", k: int):
        self.n_obs = x.observed_count()
        if self.n_obs == 0:
            raise EmptyMask("no observed cells")
        self.tau = as_tau(tau).value
        self.n, self.p, self.k = x.n_rows, x.n_cols, k
        self.size = (self.n + self.p) * (1 + k)
        self._values = np.where(x.mask, x.values, 0.0)
        self._mask = x.mask.astype(float)
        self._resid = np.empty((self.n, self.p))
        self._wr = np.empty((self.n, self.p))

    def __call__(self, vec) -> "tuple[float, np.ndarray]":
        vec = np.asarray(vec, dtype=float).ravel()
        n, p, k = self.n, self.p, self.k
        if vec.size != self.size:
            raise LengthMismatch(f"expected length {self.size} for ({n}, {p}, {k}), got {vec.size}")
        r = vec[:n]
        c = vec[n : n + p]
        u = vec[n + p : n + p + n * k].reshape(n, k)
        v = vec[n + p + n * k :].reshape(p, k)
        t = self.tau
        resid, wr = self._resid, self._wr
        np.add(r[:, None], c[None, :], out=resid)
        np.matmul(u, v.T, out=wr)
        resid += wr  # the fitted matrix
        # values - fitted * mask: unobserved cells get 0 - (+-0) = +0, and
        # observed cells see the fitted value unchanged.
        resid *= self._mask
        np.subtract(self._values, resid, out=resid)
        np.maximum(resid, 0.0, out=wr)
        wr *= t
        neg = np.minimum(resid, 0.0)
        neg *= 1.0 - t
        wr += neg  # w * resid: zero wherever unobserved, since resid is
        np.multiply(wr, resid, out=neg)
        loss = float(np.sum(neg) / self.n_obs)
        coef = -2.0 / self.n_obs
        grad = np.concatenate(
            [
                coef * wr.sum(axis=1),
                coef * wr.sum(axis=0),
                coef * (wr @ v).ravel(),
                coef * (wr.T @ u).ravel(),
            ]
        )
        return loss, grad


def loss_and_gradient(model: FactorModel, x: MaskedMatrix, tau: "float | Tau") -> LossValue:
    """Mean weighted squared residual over observed cells, with gradient.

    One-off evaluation through Objective; a fit builds its Objective once.
    """
    _check_dims(model, x)
    return LossValue(*Objective(x, tau, model.k)(flatten(model)))


def flatten(model: FactorModel) -> np.ndarray:
    return np.concatenate([model.r, model.c, model.u.ravel(), model.v.ravel()])


def unflatten(vec, n: int, p: int, k: int) -> FactorModel:
    vec = np.asarray(vec, dtype=float).ravel()
    expected = n + p + n * k + p * k
    if vec.size != expected:
        raise LengthMismatch(f"expected length {expected} for ({n}, {p}, {k}), got {vec.size}")
    r = vec[:n]
    c = vec[n : n + p]
    u = vec[n + p : n + p + n * k].reshape(n, k)
    v = vec[n + p + n * k :].reshape(p, k)
    return FactorModel(r, c, u, v)


def canonicalize(model: FactorModel) -> FactorModel:
    """Identifiability post-processing that preserves the fitted matrix.

    Moves each v-column mean into r, transfers each u-column norm onto the
    matching v column (norms captured before scaling), then moves the mean
    of c into r. Result: zero-mean v columns, unit-norm u columns, zero-mean
    c. A u column with norm below 1e-14 is left unscaled and warned about.
    """
    r = model.r.copy()
    c = model.c.copy()
    u = model.u.copy()
    v = model.v.copy()
    for j in range(model.k):
        col_mean = float(v[:, j].mean())
        r += u[:, j] * col_mean
        v[:, j] -= col_mean
    for j in range(model.k):
        norm = float(np.linalg.norm(u[:, j]))
        if norm < ZERO_COLUMN_NORM:
            warnings.warn(
                f"u column {j} has norm {norm:.3g}; left unscaled", ZeroColumnWarning
            )
            continue
        u[:, j] /= norm
        v[:, j] *= norm
    c_mean = float(c.mean())
    c -= c_mean
    r += c_mean
    return FactorModel(r, c, u, v)


def orient_rank1(model: FactorModel, pivot_row: int) -> FactorModel:
    """Fix the sign of a rank-1 fit so u is non-negative at the pivot row."""
    if model.k != 1:
        raise RankNotOne(f"orientation applies only to k = 1, got k = {model.k}")
    if not 0 <= pivot_row < model.n:
        raise ValueError(f"pivot_row {pivot_row} out of range for {model.n} rows")
    if model.u[pivot_row, 0] < 0.0:
        return FactorModel(model.r, model.c, -model.u, -model.v)
    return model


def model_to_dict(
    model: FactorModel,
    tau: "float | Tau | None" = None,
    normalization: "NormalizationInfo | None" = None,
) -> dict:
    doc = {
        "n": model.n,
        "p": model.p,
        "k": model.k,
        "tau": as_tau(tau).value if tau is not None else None,
        "r": model.r.tolist(),
        "c": model.c.tolist(),
        "u": model.u.ravel().tolist(),
        "v": model.v.ravel().tolist(),
        "normalization": None,
    }
    if normalization is not None:
        doc["normalization"] = {
            "mean": normalization.mean,
            "std": normalization.std,
            "row_means": normalization.row_means.tolist(),
            "col_means": normalization.col_means.tolist(),
        }
    return doc


def model_from_dict(doc: dict) -> "tuple[FactorModel, float | None, NormalizationInfo | None]":
    n, p, k = int(doc["n"]), int(doc["p"]), int(doc["k"])
    model = FactorModel(
        np.asarray(doc["r"], dtype=float),
        np.asarray(doc["c"], dtype=float),
        np.asarray(doc["u"], dtype=float).reshape(n, k),
        np.asarray(doc["v"], dtype=float).reshape(p, k),
    )
    info = None
    if doc.get("normalization") is not None:
        nd = doc["normalization"]
        info = NormalizationInfo(
            mean=float(nd["mean"]),
            std=float(nd["std"]),
            row_means=np.asarray(nd["row_means"], dtype=float),
            col_means=np.asarray(nd["col_means"], dtype=float),
        )
    tau = doc.get("tau")
    return model, (float(tau) if tau is not None else None), info


def save_model_json(path, model, tau=None, normalization=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, tau, normalization), fh, indent=1)
        fh.write("\n")


def load_model_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
