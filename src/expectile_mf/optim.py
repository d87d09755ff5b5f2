"""Smooth unconstrained minimizers over flat parameter vectors.

One line-search loop drives three direction rules: quasi-Newton via the
two-loop recursion over the newest pairs (lbfgs) or over every curvature
pair since the last reset (bfgs), and Polak-Ribiere conjugate gradient (cg).
Both quasi-Newton rules start their recursion from gamma / D, where D is a
positive curvature estimate at the current point (OptimizeOptions.diagonal;
the fit passes the loss's Jacobi diagonal, so each row, column and factor
block gets its own scale) and gamma = s'y / y'D^-1 y of the newest pair;
without a diagonal, D = 1 and this is the textbook gamma*I. bfgs forms no
d x d matrix: each kept pair costs 16*d bytes, 2.6 MB for the 35 pairs of a
288x2000, k=1 fit (rank-2 data, tau 0.1) against 168 MB for a dense one.
A direction that does not descend restarts the rule from steepest descent.
Every accepted step passes a strong-Wolfe bracketing search with cubic
interpolation and fixed constants: c1 = 1e-4, c2 = 0.9 for the quasi-Newton
rules and 0.4 for cg. Everything is plain double-precision numpy in fixed
order, so runs with identical inputs are bit-identical.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ExpectileMFError

STATUS_GRAD_TOL = "grad_tolerance_met"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH = "line_search_failure"

# Sufficient-decrease constant of the strong-Wolfe search, and its caps on
# step doublings and on sectioning trials.
_C1 = 1e-4
_MAX_EXPAND = 20
_MAX_SECTION = 30

# Curvature pairs kept by L-BFGS.
_LBFGS_MEMORY = 10

# Curvature threshold below which a quasi-Newton pair is skipped.
_CURVATURE_SKIP = 1e-10


@dataclass
class OptimizeOptions:
    """Knobs for minimize: the direction rule and the two stopping rules.

    algorithm is one of ALGORITHMS; the fit stops once the gradient
    infinity norm is at most grad_tol, which must be finite and positive, or
    after max_iters accepted steps.
    diagonal, when set, maps a point to a positive curvature estimate of
    the same shape; lbfgs and bfgs scale their starting matrix by its
    inverse, and cg ignores it. pipeline.fit sets it to Objective.diagonal.
    """

    algorithm: str = "lbfgs"
    grad_tol: float = 1e-6
    max_iters: int = 500
    diagonal: "Callable[[np.ndarray], np.ndarray] | None" = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be finite and positive")


@dataclass
class OptimizeResult:
    x_final: np.ndarray
    final_loss: float
    iterations: int
    function_evals: int
    elapsed_seconds: float
    status: str


def minimize(objective, x0, opts: "OptimizeOptions | None" = None, callback=None) -> OptimizeResult:
    """Minimize a smooth objective given a (loss, gradient) callback.

    Stops when the gradient infinity norm drops to opts.grad_tol, at
    opts.max_iters accepted steps, or when the line search cannot certify a
    strong-Wolfe step (the best point found is returned in that case).
    Deterministic given (objective, x0, opts).
    """
    opts = opts if opts is not None else OptimizeOptions()
    x = np.array(x0, dtype=float).ravel()
    evals = 0

    def fg(x):
        nonlocal evals
        evals += 1
        loss, grad = objective(x)
        loss = float(loss)
        grad = np.asarray(grad, dtype=float)
        if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise ExpectileMFError("objective returned NaN or Inf")
        if grad.shape != x.shape:
            raise ValueError(f"gradient shape {grad.shape} != point shape {x.shape}")
        return loss, grad

    start = time.perf_counter()
    rule = _RULES[opts.algorithm](opts.diagonal)
    f, g = fg(x)
    iters, status = 0, STATUS_MAX_ITERS
    while iters < opts.max_iters:
        if np.max(np.abs(g)) <= opts.grad_tol:
            status = STATUS_GRAD_TOL
            break
        direction = rule.direction(g, x)
        dphi0 = float(direction @ g)
        if dphi0 >= 0.0:
            # Not a descent direction (e.g. lost positive definiteness):
            # clear the rule's memory and restart from steepest descent.
            rule.reset()
            direction = -g
            dphi0 = -float(g @ g)
        alpha0 = rule.first_step(f, g, dphi0)
        alpha, f_new, g_new, ok = _wolfe_search(fg, x, direction, f, g, dphi0, rule.c2, alpha0)
        if not ok:
            # Move to the lowest evaluated point, if any beat x.
            if alpha > 0.0 and f_new < f:
                x, f = x + alpha * direction, f_new
            status = STATUS_LINE_SEARCH
            break
        # Wolfe certification of the accepted step (stripped under -O).
        assert f_new <= f + _C1 * alpha * dphi0
        assert abs(float(g_new @ direction)) <= -rule.c2 * dphi0
        x_new = x + alpha * direction
        rule.update(x_new - x, g_new - g, g, direction)
        x, f, g = x_new, f_new, g_new
        iters += 1
        if callback is not None:
            callback(x.copy())
    return OptimizeResult(
        x_final=x,
        final_loss=f,
        iterations=iters,
        function_evals=evals,
        elapsed_seconds=time.perf_counter() - start,
        status=status,
    )


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


def _wolfe_search(fg, x, direction, f0, g0, dphi0, c2, alpha0):
    """Search along direction, whose slope at x is dphi0 < 0, for a strong-Wolfe step.

    Returns (alpha, f, g, satisfied). When no certified step is found the
    lowest point evaluated is returned with satisfied = False (alpha may be
    0.0, meaning nothing improved on the start).
    """
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
        for _ in range(_MAX_SECTION):
            width = hi - lo
            trial = _cubic_step(lo, f_lo, d_lo, hi, f_hi, d_hi)
            guard = 0.1 * abs(width)
            if (
                trial is None
                or not (min(lo, hi) + guard <= trial <= max(lo, hi) - guard)
            ):
                trial = 0.5 * (lo + hi)
            f_t, g_t, d_t = evaluate(trial)
            if f_t > f0 + _C1 * trial * dphi0 or f_t >= f_lo:
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
    for i in range(_MAX_EXPAND):
        f_a, g_a, d_a = evaluate(alpha)
        if f_a > f0 + _C1 * alpha * dphi0 or (i > 0 and f_a >= f_prev):
            return section(a_prev, f_prev, d_prev, alpha, f_a, d_a)
        if abs(d_a) <= -c2 * dphi0:
            return alpha, f_a, g_a, True
        if d_a >= 0.0:
            return section(alpha, f_a, d_a, a_prev, f_prev, d_prev)
        a_prev, f_prev, d_prev = alpha, f_a, d_a
        alpha = 2.0 * alpha
    return best[0], best[1], best[2], False


# ---------------------------------------------------------------------------
# Direction rules, built as rule(diagonal): direction(g, x) at the
# point x, reset(), first_step(f, g, dphi0), and update(s, y, g, direction)
# with the accepted step s, y = g_new - g.
# ---------------------------------------------------------------------------


def _two_loop(g, pairs, h0):
    # h0 is the starting inverse Hessian: a scalar or a diagonal as a vector.
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    q *= h0
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


class _Lbfgs:
    """The newest pairs, applied from gamma / D with gamma = s'y / y'D^-1 y of the newest.

    D = diagonal(x) is recomputed at every direction; without a diagonal
    D = 1, and gamma * 1.0 is exact, so the iterates are those of gamma*I.
    """

    c2 = 0.9
    maxlen = _LBFGS_MEMORY

    def __init__(self, diagonal=None):
        self.pairs: deque = deque(maxlen=self.maxlen)
        self.diagonal = diagonal

    def h0(self, x):
        if not self.pairs:
            return 1.0
        s, y, _ = self.pairs[-1]
        d_inv = 1.0 if self.diagonal is None else 1.0 / self.diagonal(x)
        return float(s @ y) / float(y @ (d_inv * y)) * d_inv

    def direction(self, g, x):
        return -_two_loop(g, self.pairs, self.h0(x))

    def reset(self):
        self.pairs.clear()

    def first_step(self, f, g, dphi0):
        return 1.0

    def update(self, s, y, g, direction):
        sy = float(s @ y)
        if sy > _CURVATURE_SKIP * np.linalg.norm(s) * np.linalg.norm(y):
            self.pairs.append((s, y, 1.0 / sy))


class _Bfgs(_Lbfgs):
    """lbfgs with unbounded memory: every pair since the last reset."""

    maxlen = None


class _Cg:
    """Polak-Ribiere conjugate gradient with beta clipped at 0.

    beta uses g_new @ y with the stored y, since g + y need not equal g_new.
    """

    c2 = 0.4

    def __init__(self, diagonal=None):
        self.f_prev = None
        self.last = None  # (y, g.g, direction) of the last accepted step

    def direction(self, g, x):
        if self.last is None:
            return -g
        y, gg, d = self.last
        beta = max(0.0, float(g @ y) / gg) if gg > 0.0 else 0.0
        return -g + beta * d

    def reset(self):
        # The loop steps along -g, which update then records as the last direction.
        pass

    def first_step(self, f, g, dphi0):
        # First trial step sized from the last decrease, capped at 1.
        f_prev, self.f_prev = self.f_prev, f
        if f_prev is not None and dphi0 < 0.0:
            alpha0 = min(1.0, 2.02 * (f - f_prev) / dphi0)
            return alpha0 if alpha0 > 0.0 else 1.0
        g_norm = float(np.linalg.norm(g))
        return min(1.0, 1.0 / g_norm) if g_norm > 0.0 else 1.0

    def update(self, s, y, g, direction):
        self.last = (y, float(g @ g), direction)


_RULES = {"bfgs": _Bfgs, "lbfgs": _Lbfgs, "cg": _Cg}
ALGORITHMS = tuple(_RULES)
