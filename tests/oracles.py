"""Independent reference implementations used to check the library.

Everything here is deliberately written as plain scalar loops or
brute-force searches, sharing no code path with the package, except
where_loss_and_gradient: the vectorized masked loss kept as the bit-exact
reference for the package's fused kernel.
"""

import numpy as np


def loop_masked_stats(values, mask, ddof=0):
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
    return mean, (ss / (count - ddof)) ** 0.5


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
