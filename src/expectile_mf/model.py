"""Additive-plus-multiplicative factor model and its asymmetric squared loss.

The representation is r 1' + 1 c' + u v' with row effects r (n), column
effects c (p), and rank-k factors u (n x k), v (p x k). The loss averages
asymmetrically weighted squared residuals over observed cells, and its
gradient is available in closed form wherever no residual sits exactly on
the weight switch (at the switch, the residual-zero convention applies).
"""

from __future__ import annotations

import reprlib
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ExpectileMFError
from .expectiles import check_tau
from .masked import MaskedMatrix, NormalizationInfo, frozen_array

ZERO_COLUMN_NORM = 1e-14


@dataclass(frozen=True)
class FactorModel:
    """Parameters (r, c, u, v) of the fitted representation; all finite."""

    r: np.ndarray
    c: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        r, c, u, v = (frozen_array(a, float) for a in (self.r, self.c, self.u, self.v))
        if r.ndim != 1 or c.ndim != 1 or u.ndim != 2 or v.ndim != 2:
            raise ExpectileMFError("expected r (n,), c (p,), u (n,k), v (p,k)")
        if u.shape != (r.size, u.shape[1]) or v.shape != (c.size, u.shape[1]):
            raise ExpectileMFError(
                f"inconsistent shapes: r {r.shape}, c {c.shape}, u {u.shape}, v {v.shape}"
            )
        if u.shape[1] < 1:
            raise ExpectileMFError("rank k must be >= 1")
        for name, a in (("r", r), ("c", c), ("u", u), ("v", v)):
            if not np.isfinite(a).all():
                raise ExpectileMFError(f"{name} holds a non-finite value")
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
        raise ExpectileMFError(
            f"model is {model.n}x{model.p}, data is {x.n_rows}x{x.n_cols}"
        )


# Work buffers hold at most this many cells (384 KiB each), so the three of
# them (1.1 MiB) and the block's rows of data stay in a 2 MiB per-core L2 cache
# across the kernel's ~14 passes over a block of rows. Matrices of at most
# this size (every BENCH_SPEC and test instance) run as one block. On a 2-core
# Xeon VM an evaluation at 288 x 1000 took 30-40% less time in blocks than in
# whole-matrix passes; 32K cells was no faster and 64K cells about 5% slower,
# and splitting 200 x 200 (40,000 cells) was slower. One-block calls need no
# separate path: at 120 x 120 and 200 x 200 the loop's per-call cost over a
# whole-matrix version read within the spread of two copies of that version.
_BLOCK_CELLS = 49152


class Objective:
    """Loss and gradient of one fit as a function of the flat parameter vector.

    Built once per fit: holds the data's values (MaskedMatrix stores +0.0 at
    unobserved cells), the mask as floats, the observed count, three B x p
    work buffers and the small BLAS operands that every call reuses. The
    passes run over blocks of B = max(1, _BLOCK_CELLS // p) rows; a matrix of
    at most _BLOCK_CELLS cells is one block. Calls return a fresh gradient
    array, so callers may keep it; calls on one instance must not overlap,
    since they share the buffers.

    Residuals >= 0 get weight tau, residuals < 0 get 1 - tau; unobserved
    cells contribute nothing to either the loss or the gradient. For a
    one-block matrix every loss and gradient value equals that of the masked
    np.where form:
    - r 1' + 1 c' is the product [r, 1] [1, c]'. Its two terms r_i * 1 and
      1 * c_j are exact, so BLAS returns round(r_i + c_j) in any order.
    - For k = 1, u v' is [u, 0] [v, 0]'; the padding term is exactly 0, so
      each cell is round(u_i v_j). numpy's outer product (inner dimension
      1) does not use BLAS and is several times slower. For k >= 2 the
      product stays u @ v.T: another operand layout changes the order of
      the k-term sums and so the last bit of some cells.
    - w * resid is min(resid t, resid (1 - t)) for t <= 0.5 and the max
      for t > 0.5: rounding is monotone, so this picks resid t exactly
      where resid >= 0.
    Only the sign of an exact-zero fitted value can differ (the BLAS sums
    start from +0), which changes no value that is compared with ==. Above
    _BLOCK_CELLS the loss, the c part and the v part are sums of per-block
    sums taken in row order, so they differ from the one-block values in
    their trailing digits.
    """

    def __init__(self, x: MaskedMatrix, tau: float, k: int):
        self.n_obs = x.observed_count()
        if self.n_obs == 0:
            raise ExpectileMFError("no observed cells")
        self.tau = check_tau(tau)
        self.n, self.p, self.k = x.n_rows, x.n_cols, k
        self._values = x.values
        self._mask = x.mask.astype(float)
        self._counts = np.concatenate([self._mask.sum(axis=1), self._mask.sum(axis=0)])
        self._block_rows = min(self.n, max(1, _BLOCK_CELLS // self.p))
        self._resid, self._wr, self._prod = (np.empty((self._block_rows, self.p)) for _ in range(3))
        self._r1, self._1c = np.ones((self.n, 2)), np.ones((2, self.p))
        self._u0, self._v0 = np.zeros((self.n, 2)), np.zeros((2, self.p))

    def __call__(self, vec) -> "tuple[float, np.ndarray]":
        n, p, k, b, t = self.n, self.p, self.k, self._block_rows, self.tau
        r, c, u, v = _split(vec, n, p, k)
        self._r1[:, 0], self._1c[1] = r, c
        if k == 1:
            self._u0[:, 0], self._v0[0] = u[:, 0], v[:, 0]
        grad = np.zeros((n + p) * (1 + k))
        g_r, g_c, g_u, g_v = _split(grad, n, p, k)
        total = 0.0
        for lo in range(0, n, b):
            rows, m = slice(lo, lo + b), min(b, n - lo)
            resid, wr, prod = self._resid[:m], self._wr[:m], self._prod[:m]
            u_b = u[rows]
            np.matmul(self._r1[rows], self._1c, out=resid)
            if k == 1:
                np.matmul(self._u0[rows], self._v0, out=wr)
            else:
                np.matmul(u_b, v.T, out=wr)
            resid += wr  # the fitted matrix
            # values - fitted * mask: unobserved cells get 0 - (+-0) = +0, and
            # observed cells see the fitted value unchanged.
            resid *= self._mask[rows]
            np.subtract(self._values[rows], resid, out=resid)
            np.multiply(resid, t, out=wr)
            np.multiply(resid, 1.0 - t, out=prod)
            (np.minimum if t <= 0.5 else np.maximum)(wr, prod, out=wr)  # w * resid
            np.multiply(wr, resid, out=prod)
            total += float(np.sum(prod))
            np.sum(wr, axis=1, out=g_r[rows])
            g_c += wr.sum(axis=0)
            np.matmul(wr, v, out=g_u[rows])
            g_v += wr.T @ u_b
        grad *= -2.0 / self.n_obs
        return total / self.n_obs, grad

    def diagonal(self, vec) -> np.ndarray:
        """Jacobi diagonal of the loss at vec, scaled by n_obs, in flat order.

        Entries are each row's and column's observed count for r and c,
        sum_j m_ij v_jl^2 for u_il and sum_i m_ij u_il^2 for v_jl: n_obs times
        the Hessian diagonal at tau = 0.5, where every weight is 1/2 (other
        levels weight each cell's term by 2 tau or 2 (1 - tau)). Entries are
        floored at 1e-8 * max, so a row or column with no observed cells stays
        positive. Costs two n x p matrix products and no n x p temporary.
        """
        _, _, u, v = _split(vec, self.n, self.p, self.k)
        d = np.concatenate(
            [self._counts, (self._mask @ (v * v)).ravel(), (self._mask.T @ (u * u)).ravel()]
        )
        return np.maximum(d, 1e-8 * d.max())


def loss_and_gradient(model: FactorModel, x: MaskedMatrix, tau: float) -> LossValue:
    """Mean weighted squared residual over observed cells, with gradient.

    One-off evaluation through Objective; a fit builds its Objective once.
    """
    _check_dims(model, x)
    return LossValue(*Objective(x, tau, model.k)(flatten(model)))


def flatten(model: FactorModel) -> np.ndarray:
    return np.concatenate([model.r, model.c, model.u.ravel(), model.v.ravel()])


def _split(vec, n: int, p: int, k: int):
    """Views (r, c, u, v) of a flat parameter vector laid out as flatten's."""
    vec = np.asarray(vec, dtype=float).ravel()
    expected = (n + p) * (1 + k)
    if vec.size != expected:
        raise ExpectileMFError(f"expected length {expected} for ({n}, {p}, {k}), got {vec.size}")
    uv = vec[n + p :]
    return vec[:n], vec[n : n + p], uv[: n * k].reshape(n, k), uv[n * k :].reshape(p, k)


def unflatten(vec, n: int, p: int, k: int) -> FactorModel:
    return FactorModel(*_split(vec, n, p, k))


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
            warnings.warn(f"u column {j} has norm {norm:.3g}; left unscaled")
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
        raise ExpectileMFError(f"orientation applies only to k = 1, got k = {model.k}")
    if not 0 <= pivot_row < model.n:
        raise ValueError(f"pivot_row {pivot_row} out of range for {model.n} rows")
    if model.u[pivot_row, 0] < 0.0:
        return FactorModel(model.r, model.c, -model.u, -model.v)
    return model


def model_to_dict(model: FactorModel, tau: float, info: NormalizationInfo) -> dict:
    """The model file: the model, the tau it was fit at and the normalization of its data."""
    return {
        "n": model.n,
        "p": model.p,
        "k": model.k,
        "tau": tau,
        "r": model.r.tolist(),
        "c": model.c.tolist(),
        "u": model.u.ravel().tolist(),
        "v": model.v.ravel().tolist(),
        "normalization": {
            "mean": info.mean,
            "std": info.std,
            "row_means": info.row_means.tolist(),
            "col_means": info.col_means.tolist(),
        },
    }


def _numbers(name, value, count=None):
    """A model file's JSON number as a float or, given count, its flat list of exactly
    count JSON numbers as an array; a bool, string, null or nested list is rejected."""
    if count is not None and not (type(value) is list and len(value) == count):
        raise ExpectileMFError(f"{name} must be a list of {count} numbers")
    for item in [value] if count is None else value:
        if type(item) not in (int, float):
            raise ExpectileMFError(f"{name} must hold JSON numbers, got {reprlib.repr(item)}")
    return float(value) if count is None else np.array(value, dtype=float)


def model_from_dict(doc: dict) -> "tuple[FactorModel, float, NormalizationInfo]":
    """Inverse of model_to_dict; a bad document raises a data error, KeyError,
    TypeError, ValueError or OverflowError."""
    n, p, k = (doc[name] for name in "npk")
    if any(type(d) is not int for d in (n, p, k)):  # bool is an int subclass; reject it too
        raise ExpectileMFError(f"declared n, p and k must be integers, got {n!r}, {p!r}, {k!r}")
    r, c, u, v = (_numbers(name, doc[name], count)
                  for name, count in zip("rcuv", (n, p, n * k, p * k)))
    model = FactorModel(r, c, u.reshape(n, k), v.reshape(p, k))
    nd = doc["normalization"]
    info = NormalizationInfo(
        mean=_numbers("mean", nd["mean"]),
        std=_numbers("std", nd["std"]),
        row_means=_numbers("row_means", nd["row_means"], n),
        col_means=_numbers("col_means", nd["col_means"], p),
    )
    return model, check_tau(_numbers("tau", doc["tau"])), info
