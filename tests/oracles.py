"""Independent reference implementations used to check the library.

Everything here is deliberately written as plain scalar loops or
brute-force searches, sharing no code path with the package, except the
bit-exact references for vectorized package code: where_loss_and_gradient
(the fused loss kernel), loop_bin_records (the sorted record binning) and
csv_writer_write_matrix (the row-format matrix CSV writer).
full_matrix_bfgs_update and DenseBfgsRule are the dense reference that the
package's two-loop lbfgs and bfgs rules must match to rounding;
ScalarLbfgsRule is the bit-exact reference for lbfgs from gamma*I, the form
its diagonal scaling must reduce to at D = 1. The last three helpers
are the gates' measuring tools: a central-difference gradient, and the
planted mean and noise level of a simulated matrix.
"""

import csv
import math

import numpy as np

from expectile_mf.errors import ExpectileMFError


def loop_masked_stats(values, mask):
    """Mean and std over observed cells by explicit accumulation."""
    total, count = 0.0, 0
    for i in range(len(values)):
        for j in range(len(values[0])):
            if mask[i][j]:
                total += values[i][j]
                count += 1
    mean = total / count
    ss = 0.0
    for i in range(len(values)):
        for j in range(len(values[0])):
            if mask[i][j]:
                ss += (values[i][j] - mean) ** 2
    return mean, (ss / count) ** 0.5


def asymmetric_objective(sample, tau, mu):
    """Sum of tau-weighted squared deviations around mu."""
    total = 0.0
    for x in sample:
        w = tau if x - mu >= 0 else 1.0 - tau
        total += w * (x - mu) ** 2
    return total


def expectile_grid_bisect(sample, tau, grid_points=2001, tol=1e-12):
    """Expectile by dense grid search refined with bisection.

    The grid locates the minimum of the asymmetric objective; bisection then
    solves the first-order condition g(mu) = sum_i w_i (x_i - mu) = 0, which
    is strictly decreasing in mu.
    """
    sample = [float(x) for x in sample]
    lo, hi = min(sample), max(sample)
    if lo == hi:
        return lo

    def foc(mu):
        total = 0.0
        for x in sample:
            w = tau if x - mu >= 0 else 1.0 - tau
            total += w * (x - mu)
        return total

    grid = np.linspace(lo, hi, grid_points)
    best = grid[int(np.argmin([asymmetric_objective(sample, tau, m) for m in grid]))]
    span = (hi - lo) / (grid_points - 1)
    a, b = max(lo, best - 2 * span), min(hi, best + 2 * span)
    fa, fb = foc(a), foc(b)
    # widen until the root is bracketed (guards grid-edge cases)
    while fa < 0 and a > lo:
        a = max(lo, a - 4 * span)
        fa = foc(a)
    while fb > 0 and b < hi:
        b = min(hi, b + 4 * span)
        fb = foc(b)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = foc(mid)
        if fm > 0:
            a = mid
        else:
            b = mid
        if b - a <= tol * (1.0 + abs(mid)):
            break
    return 0.5 * (a + b)


def loop_fitted(r, c, u, v):
    """Entrywise fitted matrix."""
    n, p, k = len(r), len(c), len(u[0])
    out = [[0.0] * p for _ in range(n)]
    for i in range(n):
        for j in range(p):
            s = r[i] + c[j]
            for l in range(k):
                s += u[i][l] * v[j][l]
            out[i][j] = s
    return np.array(out)


def loop_loss_and_gradient(r, c, u, v, values, mask, tau):
    """Scalar-loop loss and gradient blocks for the asymmetric squared loss."""
    n, p, k = len(r), len(c), len(u[0])
    n_obs = sum(1 for i in range(n) for j in range(p) if mask[i][j])
    fitted = loop_fitted(r, c, u, v)
    loss = 0.0
    gr = [0.0] * n
    gc = [0.0] * p
    gu = [[0.0] * k for _ in range(n)]
    gv = [[0.0] * k for _ in range(p)]
    for i in range(n):
        for j in range(p):
            if not mask[i][j]:
                continue
            e = values[i][j] - fitted[i][j]
            w = tau if e >= 0 else 1.0 - tau
            loss += w * e * e
            gr[i] += -2.0 * w * e / n_obs
            gc[j] += -2.0 * w * e / n_obs
            for l in range(k):
                gu[i][l] += -2.0 * w * e * v[j][l] / n_obs
                gv[j][l] += -2.0 * w * e * u[i][l] / n_obs
    return loss / n_obs, np.array(gr), np.array(gc), np.array(gu), np.array(gv)


def where_loss_and_gradient(r, c, u, v, values, mask, tau):
    """Masked loss and flat gradient in the np.where formulation.

    The fused kernel must reproduce these bits exactly: same reductions, same
    matrix products, same order of operations.
    """
    r, c, u, v = (np.asarray(a, dtype=float) for a in (r, c, u, v))
    values, mask = np.asarray(values, dtype=float), np.asarray(mask, dtype=bool)
    n_obs = int(mask.sum())
    fitted = r[:, None] + c[None, :] + u @ v.T
    resid = np.where(mask, values - fitted, 0.0)
    w = np.where(resid >= 0.0, tau, 1.0 - tau)
    wr = w * resid
    loss = float(np.sum(wr * resid) / n_obs)
    coef = -2.0 / n_obs
    grad = np.concatenate(
        [
            coef * wr.sum(axis=1),
            coef * wr.sum(axis=0),
            coef * (wr @ v).ravel(),
            coef * (wr.T @ u).ravel(),
        ]
    )
    return loss, grad


def icc_two_pass(values, groups):
    """Variance ratio by an explicit two-pass computation."""
    values = [float(x) for x in values]
    n = len(values)
    grand = sum(values) / n
    total = sum((x - grand) ** 2 for x in values) / n
    sums, counts = {}, {}
    for x, g in zip(values, groups):
        sums[g] = sums.get(g, 0.0) + x
        counts[g] = counts.get(g, 0) + 1
    means = {g: sums[g] / counts[g] for g in sums}
    between = sum((means[g] - grand) ** 2 for g in groups) / n
    return between / total


def median_sorted(xs):
    """Median as the middle order statistic, averaging the two middles."""
    s = sorted(xs)
    m = len(s) // 2
    if len(s) % 2 == 1:
        return float(s[m])
    return (s[m - 1] + s[m]) / 2.0


def full_matrix_bfgs_update(h, s, y, sy):
    """Dense inverse-Hessian BFGS update on the whole d x d matrix, in place.

    h <- (I - rho s y') h (I - rho y s') + rho s s' with rho = 1 / sy.
    """
    rho = 1.0 / sy
    hy = h @ y
    h -= rho * (np.outer(s, hy) + np.outer(hy, s))
    h += (rho * rho * float(y @ hy) + rho) * np.outer(s, s)


class DenseBfgsRule:
    """Dense-matrix quasi-Newton direction rule with the package's rule interface.

    Each direction rebuilds the d x d inverse Hessian: diag(gamma / D) with
    D = diagonal(x) (1 without a diagonal) and gamma = s'y / y'D^-1 y of the
    newest pair, then the dense BFGS update with every kept pair, oldest
    first; with no pairs it is I. Pairs with s'y <= 1e-10 |s| |y| are
    skipped, reset drops every pair, and memory, when set, keeps only that
    many of the newest.
    """

    c2 = 0.9

    def __init__(self, diagonal=None, memory=None):
        self.diagonal = diagonal
        self.memory = memory
        self.pairs = []

    def direction(self, g, x):
        h = np.eye(g.size)
        if self.pairs:
            s, y = self.pairs[-1]
            d_inv = np.ones(g.size) if self.diagonal is None else 1.0 / self.diagonal(x)
            h = np.diag(float(s @ y) / float(y @ (d_inv * y)) * d_inv)
        for s, y in self.pairs:
            full_matrix_bfgs_update(h, s, y, float(s @ y))
        return -(h @ g)

    def reset(self):
        self.pairs = []

    def first_step(self, f, g, dphi0):
        return 1.0

    def update(self, s, y, g, direction):
        if float(s @ y) > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            self.pairs.append((s, y))
            if self.memory is not None:
                del self.pairs[: -self.memory]


class ScalarLbfgsRule:
    """Textbook L-BFGS direction rule: the ten newest pairs from gamma*I.

    gamma = s'y / y'y of the newest pair (1 with no pairs); pairs with
    s'y <= 1e-10 |s| |y| are skipped. Ignores any diagonal.
    """

    c2 = 0.9

    def __init__(self, diagonal=None):
        self.pairs = []

    def direction(self, g, x):
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        if self.pairs:
            s, y, _ = self.pairs[-1]
            q *= float(s @ y) / float(y @ y)
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        return -q

    def reset(self):
        self.pairs = []

    def first_step(self, f, g, dphi0):
        return 1.0

    def update(self, s, y, g, direction):
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            self.pairs = (self.pairs + [(s, y, 1.0 / sy)])[-10:]


def loop_bin_records(records):
    """Per-cell np.median of (person_id, timestamp, bpm) records grouped in dicts of lists.

    Returns (values, mask, labels) of the 288 x person-days matrix, columns
    ordered by (person_id, date), cells keyed by wall-clock five-minute
    segment.
    """
    cells = {}
    for person_id, ts, bpm in records:
        day = cells.setdefault((person_id, ts.date()), {})
        segment = (ts.hour * 3600 + ts.minute * 60 + ts.second) // 300
        day.setdefault(segment, []).append(bpm)
    labels = sorted(cells)
    values = np.zeros((288, len(labels)))
    mask = np.zeros((288, len(labels)), dtype=bool)
    for j, label in enumerate(labels):
        for seg, bpms in cells[label].items():
            values[seg, j] = float(np.median(bpms))
            mask[seg, j] = True
    return values, mask, tuple(labels)


def csv_writer_write_matrix(values, mask, path):
    """Matrix CSV through csv.writer, one f-string per cell, "nan" where missing."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for i in range(len(values)):
            writer.writerow(
                [f"{values[i][j]:.17g}" if mask[i][j] else "nan" for j in range(len(values[i]))]
            )


def finite_difference_gradient(objective, x, step=1e-6):
    """Central-difference gradient of the loss component of the callback."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float).ravel()
    grad = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = step
        f_plus = float(objective(x + bump)[0])
        f_minus = float(objective(x - bump)[0])
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise ExpectileMFError("objective returned NaN or Inf")
        grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def mean_matrix(sim):
    """Noise-free planted matrix at every cell."""
    return sim.true_r[:, None] + sim.true_c[None, :] + sim.true_u @ sim.true_v.T


def residual_noise_std(sim, info):
    """Empirical std of the planted noise at observed cells, on the normalized scale.

    This is the noise level a perfect fit of the normalized matrix would
    leave behind; half its square is the corresponding tau = 0.5 loss.
    """
    resid = (sim.x.values - mean_matrix(sim))[sim.x.mask]
    return float(np.std(resid) / info.std)
