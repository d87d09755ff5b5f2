"""Smooth unconstrained minimizers over flat parameter vectors.

Three algorithms behind one entry point: dense quasi-Newton with an inverse
Hessian update (bfgs), limited-memory quasi-Newton via the two-loop
recursion (lbfgs), and Polak-Ribiere conjugate gradient with restart on
non-descent (cg). All share a strong-Wolfe bracketing line search with
cubic interpolation, so every accepted step certifies both the sufficient
decrease and the curvature condition. Everything is plain double-precision
numpy in fixed order, so runs with identical inputs are bit-identical.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteObjective

ALGORITHMS = ("bfgs", "lbfgs", "cg")

STATUS_GRAD_TOL = "grad_tolerance_met"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH = "line_search_failure"

# Curvature threshold below which a quasi-Newton pair is skipped.
_CURVATURE_SKIP = 1e-10

# Rows per block of the in-place dense-BFGS update. At d=1600, blocks of 8 to
# 64 rows ran a 50-iteration fit within noise of each other (1.14-1.23 s
# medians); 16 keeps the (2, 16, d) work buffer at 400 KB.
_BFGS_BLOCK = 16


@dataclass
class OptimizeOptions:
    """Knobs for minimize.

    c2 defaults to 0.9 for the quasi-Newton methods and 0.4 for cg when
    left as None. scale_h0 controls the usual curvature-based scaling of
    the initial inverse Hessian (identity when disabled).
    """

    algorithm: str = "lbfgs"
    grad_tol: float = 1e-6
    max_iters: int = 500
    lbfgs_memory: int = 10
    c1: float = 1e-4
    c2: "float | None" = None
    scale_h0: bool = True

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.lbfgs_memory < 1:
            raise ValueError("lbfgs_memory must be >= 1")
        c2 = self.effective_c2()
        if not 0.0 < self.c1 < c2 < 1.0:
            raise ValueError(f"need 0 < c1 < c2 < 1, got c1={self.c1}, c2={c2}")
        if not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")

    def effective_c2(self) -> float:
        if self.c2 is not None:
            return self.c2
        return 0.4 if self.algorithm == "cg" else 0.9


@dataclass
class OptimizeResult:
    x_final: np.ndarray
    final_loss: float
    iterations: int
    function_evals: int
    elapsed_seconds: float
    status: str


def _counted(objective, counter):
    def fg(x):
        counter[0] += 1
        loss, grad = objective(x)
        loss = float(loss)
        grad = np.asarray(grad, dtype=float)
        if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise NonFiniteObjective("objective returned NaN or Inf")
        if grad.shape != x.shape:
            raise ValueError(f"gradient shape {grad.shape} != point shape {x.shape}")
        return loss, grad

    return fg


def minimize(objective, x0, opts: "OptimizeOptions | None" = None, callback=None) -> OptimizeResult:
    """Minimize a smooth objective given a (loss, gradient) callback.

    Stops when the gradient infinity norm drops to opts.grad_tol, at
    opts.max_iters accepted steps, or when the line search cannot certify a
    strong-Wolfe step (the best point found is returned in that case).
    Deterministic given (objective, x0, opts).
    """
    opts = opts if opts is not None else OptimizeOptions()
    x0 = np.array(x0, dtype=float).ravel()
    counter = [0]
    fg = _counted(objective, counter)
    start = time.perf_counter()
    loop = {"bfgs": _bfgs_loop, "lbfgs": _lbfgs_loop, "cg": _cg_loop}[opts.algorithm]
    x, loss, iters, status = loop(fg, x0, opts, callback)
    return OptimizeResult(
        x_final=x,
        final_loss=loss,
        iterations=iters,
        function_evals=counter[0],
        elapsed_seconds=time.perf_counter() - start,
        status=status,
    )


def finite_difference_gradient(objective, x, step: float = 1e-6) -> np.ndarray:
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
            raise NonFiniteObjective("objective returned NaN or Inf")
        grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# Strong Wolfe line search: bracketing plus cubic-interpolated sectioning.
# ---------------------------------------------------------------------------


def _cubic_step(a, fa, da, b, fb, db):
    # Minimizer of the cubic through (a, fa, da) and (b, fb, db); None when
    # the interpolation is degenerate.
    if a == b:
        return None
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if disc < 0.0:
        return None
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = db - da + 2.0 * d2
    if denom == 0.0:
        return None
    t = b - (b - a) * (db + d2 - d1) / denom
    return t if math.isfinite(t) else None


def _wolfe_search(fg, x, direction, f0, g0, c1, c2, alpha0, max_expand=20, max_section=30):
    """Search along direction for a step satisfying the strong Wolfe conditions.

    Returns (alpha, f, g, satisfied). When no certified step is found the
    lowest point evaluated is returned with satisfied = False (alpha may be
    0.0, meaning nothing improved on the start).
    """
    dphi0 = float(g0 @ direction)
    best = (0.0, f0, g0)

    def evaluate(alpha):
        nonlocal best
        f_a, g_a = fg(x + alpha * direction)
        if f_a < best[1]:
            best = (alpha, f_a, g_a)
        return f_a, g_a, float(g_a @ direction)

    def section(lo, f_lo, d_lo, hi, f_hi, d_hi):
        # Invariant: lo satisfies Armijo, and the interval brackets a Wolfe
        # point (d_lo * (hi - lo) < 0).
        for _ in range(max_section):
            width = hi - lo
            trial = _cubic_step(lo, f_lo, d_lo, hi, f_hi, d_hi)
            guard = 0.1 * abs(width)
            if (
                trial is None
                or not (min(lo, hi) + guard <= trial <= max(lo, hi) - guard)
            ):
                trial = 0.5 * (lo + hi)
            f_t, g_t, d_t = evaluate(trial)
            if f_t > f0 + c1 * trial * dphi0 or f_t >= f_lo:
                hi, f_hi, d_hi = trial, f_t, d_t
            else:
                if abs(d_t) <= -c2 * dphi0:
                    return trial, f_t, g_t, True
                if d_t * (hi - lo) >= 0.0:
                    hi, f_hi, d_hi = lo, f_lo, d_lo
                lo, f_lo, d_lo = trial, f_t, d_t
            if abs(hi - lo) <= 1e-16 * max(1.0, abs(lo)):
                break
        return best[0], best[1], best[2], False

    a_prev, f_prev, d_prev = 0.0, f0, dphi0
    alpha = alpha0
    for i in range(max_expand):
        f_a, g_a, d_a = evaluate(alpha)
        if f_a > f0 + c1 * alpha * dphi0 or (i > 0 and f_a >= f_prev):
            return section(a_prev, f_prev, d_prev, alpha, f_a, d_a)
        if abs(d_a) <= -c2 * dphi0:
            return alpha, f_a, g_a, True
        if d_a >= 0.0:
            return section(alpha, f_a, d_a, a_prev, f_prev, d_prev)
        a_prev, f_prev, d_prev = alpha, f_a, d_a
        alpha = 2.0 * alpha
    return best[0], best[1], best[2], False


def _certify_wolfe(f, g, direction, alpha, f_new, g_new, c1, c2):
    # Wolfe certification of the accepted pair (stripped under -O).
    dphi0 = float(g @ direction)
    assert f_new <= f + c1 * alpha * dphi0
    assert abs(float(g_new @ direction)) <= -c2 * dphi0


def _finish_failed(best_alpha, best_f, x, f, direction):
    # Line search gave up: move to the lowest evaluated point, if any beat x.
    if best_alpha > 0.0 and best_f < f:
        return x + best_alpha * direction, best_f
    return x, f


# ---------------------------------------------------------------------------
# Algorithm loops
# ---------------------------------------------------------------------------


def _bfgs_update(h, s, y, sy, buf):
    """Inverse-Hessian update h <- (I - rho s y') h (I - rho y s') + rho s s', in place.

    Works one block of rows at a time in buf, shape (2, _BFGS_BLOCK, dim), so
    no d x d temporary is built. Each element sees the same operations in the
    same order as h -= rho*(s hy' + hy s'); h += scale*s s', so h is
    bit-identical to that full-matrix form and stays exactly symmetric.
    """
    rho = 1.0 / sy
    hy = h @ y
    scale = rho * rho * float(y @ hy) + rho
    for start in range(0, h.shape[0], _BFGS_BLOCK):
        stop = start + _BFGS_BLOCK
        rows = h[start:stop]
        a, b = buf[:, : rows.shape[0]]
        np.multiply(s[start:stop, None], hy, out=a)
        np.multiply(hy[start:stop, None], s, out=b)
        a += b
        a *= rho
        rows -= a
        np.multiply(s[start:stop, None], s, out=a)
        a *= scale
        rows += a


def _bfgs_loop(fg, x, opts, callback):
    c1, c2 = opts.c1, opts.effective_c2()
    f, g = fg(x)
    dim = x.size
    h = np.eye(dim)
    buf = np.empty((2, _BFGS_BLOCK, dim))
    first_pair = True
    iters = 0
    while iters < opts.max_iters:
        if np.max(np.abs(g)) <= opts.grad_tol:
            return x, f, iters, STATUS_GRAD_TOL
        direction = -(h @ g)
        if float(direction @ g) >= 0.0:
            # Numerical loss of positive definiteness: restart from steepest descent.
            h = np.eye(dim)
            direction = -g
        alpha, f_new, g_new, ok = _wolfe_search(fg, x, direction, f, g, c1, c2, 1.0)
        if not ok:
            x, f = _finish_failed(alpha, f_new, x, f, direction)
            return x, f, iters, STATUS_LINE_SEARCH
        _certify_wolfe(f, g, direction, alpha, f_new, g_new, c1, c2)
        x_new = x + alpha * direction
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if first_pair and opts.scale_h0 and sy > 0.0:
            h *= sy / float(y @ y)
        first_pair = False
        if sy > _CURVATURE_SKIP * np.linalg.norm(s) * np.linalg.norm(y):
            _bfgs_update(h, s, y, sy, buf)
        x, f, g = x_new, f_new, g_new
        iters += 1
        if callback is not None:
            callback(x.copy())
    return x, f, iters, STATUS_MAX_ITERS


def _two_loop(g, pairs, gamma):
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def _lbfgs_loop(fg, x, opts, callback):
    c1, c2 = opts.c1, opts.effective_c2()
    f, g = fg(x)
    pairs: deque = deque(maxlen=opts.lbfgs_memory)
    iters = 0
    while iters < opts.max_iters:
        if np.max(np.abs(g)) <= opts.grad_tol:
            return x, f, iters, STATUS_GRAD_TOL
        if pairs and opts.scale_h0:
            s_last, y_last, _ = pairs[-1]
            gamma = float(s_last @ y_last) / float(y_last @ y_last)
        else:
            gamma = 1.0
        direction = -_two_loop(g, list(pairs), gamma)
        if float(direction @ g) >= 0.0:
            pairs.clear()
            direction = -g
        alpha, f_new, g_new, ok = _wolfe_search(fg, x, direction, f, g, c1, c2, 1.0)
        if not ok:
            x, f = _finish_failed(alpha, f_new, x, f, direction)
            return x, f, iters, STATUS_LINE_SEARCH
        _certify_wolfe(f, g, direction, alpha, f_new, g_new, c1, c2)
        x_new = x + alpha * direction
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > _CURVATURE_SKIP * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
        x, f, g = x_new, f_new, g_new
        iters += 1
        if callback is not None:
            callback(x.copy())
    return x, f, iters, STATUS_MAX_ITERS


def _cg_loop(fg, x, opts, callback):
    c1, c2 = opts.c1, opts.effective_c2()
    f, g = fg(x)
    direction = -g
    f_prev = None
    iters = 0
    while iters < opts.max_iters:
        if np.max(np.abs(g)) <= opts.grad_tol:
            return x, f, iters, STATUS_GRAD_TOL
        dphi0 = float(direction @ g)
        if dphi0 >= 0.0:
            direction = -g
            dphi0 = -float(g @ g)
        # First trial step sized from the last decrease, capped at 1.
        if f_prev is not None and dphi0 < 0.0:
            alpha0 = min(1.0, 2.02 * (f - f_prev) / dphi0)
            if alpha0 <= 0.0:
                alpha0 = 1.0
        else:
            g_norm = float(np.linalg.norm(g))
            alpha0 = min(1.0, 1.0 / g_norm) if g_norm > 0.0 else 1.0
        alpha, f_new, g_new, ok = _wolfe_search(fg, x, direction, f, g, c1, c2, alpha0)
        if not ok:
            x, f = _finish_failed(alpha, f_new, x, f, direction)
            return x, f, iters, STATUS_LINE_SEARCH
        _certify_wolfe(f, g, direction, alpha, f_new, g_new, c1, c2)
        x_new = x + alpha * direction
        gg = float(g @ g)
        beta = max(0.0, float(g_new @ (g_new - g)) / gg) if gg > 0.0 else 0.0
        direction = -g_new + beta * direction
        f_prev = f
        x, f, g = x_new, f_new, g_new
        iters += 1
        if callback is not None:
            callback(x.copy())
    return x, f, iters, STATUS_MAX_ITERS
