from dataclasses import replace

import numpy as np
import pytest

from expectile_mf import (
    ExpectileMFError,
    FitConfig,
    Objective,
    OptimizeOptions,
    SimulationSpec,
    flatten,
    generate,
    initial_model,
    minimize,
    normalize,
)
from expectile_mf import optim, pipeline
from expectile_mf.optim import (
    ALGORITHMS,
    STATUS_GRAD_TOL,
    STATUS_LINE_SEARCH,
    STATUS_MAX_ITERS,
    _two_loop,
)
from oracles import (
    DenseBfgsRule,
    ScalarLbfgsRule,
    finite_difference_gradient,
    full_matrix_bfgs_update,
)


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def objective(x):
        d = x - center
        return float(d @ d), 2.0 * d

    return objective


def rosenbrock(x):
    a, b = x
    f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    g = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])
    return f, g


def ill_conditioned_quadratic(dim, kappa, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = np.geomspace(1.0, kappa, dim)
    a = q @ np.diag(eigs) @ q.T
    center = rng.normal(size=dim)

    def objective(x):
        d = x - center
        return float(d @ (a @ d)), 2.0 * (a @ d)

    return objective, center


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizeOptions(algorithm="adam")
        with pytest.raises(ValueError):
            OptimizeOptions(max_iters=0)
        with pytest.raises(ValueError):
            OptimizeOptions(grad_tol=-1.0)
        with pytest.raises(ValueError):
            OptimizeOptions(grad_tol=float("nan"))
        with pytest.raises(ValueError, match="^grad_tol must be finite and positive$"):
            OptimizeOptions(grad_tol=float("inf"))


class TestQuadratics:
    @pytest.mark.parametrize("algorithm", ["bfgs", "lbfgs"])
    def test_converges_within_dim_plus_five(self, algorithm, rng):
        for dim in (1, 3, 8, 20):
            center = rng.normal(size=dim)
            x0 = rng.normal(size=dim)
            res = minimize(quadratic(center), x0, OptimizeOptions(algorithm=algorithm))
            assert res.status == STATUS_GRAD_TOL
            assert res.iterations <= dim + 5
            assert np.abs(res.x_final - center).max() < 1e-6

    def test_cg_solves_quadratic(self, rng):
        center = rng.normal(size=6)
        res = minimize(quadratic(center), rng.normal(size=6), OptimizeOptions(algorithm="cg"))
        assert res.status == STATUS_GRAD_TOL
        assert np.abs(res.x_final - center).max() < 1e-6

    def test_ill_conditioned_quadratic(self):
        objective, center = ill_conditioned_quadratic(12, 1e4)
        for algorithm in ("bfgs", "lbfgs", "cg"):
            res = minimize(objective, np.zeros(12), OptimizeOptions(algorithm=algorithm, max_iters=2000))
            assert np.abs(res.x_final - center).max() < 1e-4, algorithm


class TestRosenbrock:
    @pytest.mark.parametrize("algorithm", ["bfgs", "lbfgs", "cg"])
    def test_classic_start(self, algorithm):
        res = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimizeOptions(algorithm=algorithm))
        assert np.abs(res.x_final - 1.0).max() < 1e-5
        assert res.final_loss < 1e-10


class TestDescentAndWolfe:
    @pytest.mark.parametrize("algorithm", ["bfgs", "lbfgs", "cg"])
    def test_monotone_accepted_losses(self, algorithm, rng):
        losses = []

        base = rosenbrock

        def spy(x):
            f, g = base(x)
            return f, g

        x0 = np.array([-1.2, 1.0])
        f0 = base(x0)[0]
        trail = [f0]

        def callback(xk):
            trail.append(base(xk)[0])

        minimize(spy, x0, OptimizeOptions(algorithm=algorithm), callback=callback)
        diffs = np.diff(np.array(trail))
        assert np.all(diffs <= 0.0)

    def test_determinism_bit_identical(self):
        def run():
            iterates = []
            res = minimize(
                rosenbrock,
                np.array([-1.2, 1.0]),
                OptimizeOptions(algorithm="lbfgs"),
                callback=lambda xk: iterates.append(xk),
            )
            return res, iterates

        res1, it1 = run()
        res2, it2 = run()
        assert res1.final_loss == res2.final_loss
        assert np.array_equal(res1.x_final, res2.x_final)
        assert len(it1) == len(it2)
        assert all(np.array_equal(a, b) for a, b in zip(it1, it2))


def curvature_pair(rng, dim):
    s = rng.normal(size=dim)
    y = s * rng.uniform(0.5, 2.0, size=dim) + 0.1 * rng.normal(size=dim)
    return s, y


class TestBfgsUpdate:
    def test_two_loop_matches_dense_update(self, rng):
        # Over the same pairs, the two-loop recursion from gamma*I applies the
        # inverse Hessian that the dense update builds from gamma*I.
        dim, gamma = 40, 0.7
        h = gamma * np.eye(dim)
        pairs = []
        for _ in range(8):
            s, y = curvature_pair(rng, dim)
            sy = float(s @ y)
            full_matrix_bfgs_update(h, s, y, sy)
            pairs.append((s, y, 1.0 / sy))
        g = rng.normal(size=dim)
        dense = h @ g
        assert np.abs(_two_loop(g, pairs, gamma) - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_minimize_path_matches_full_matrix_loop(self, monkeypatch):
        # An over-ranked k=2 fit from the loss's diagonal keeps 140 pairs, far
        # beyond lbfgs's memory. At tau 0.3 it would stop at max_iters, where
        # 500 ill-posed steps grow the two paths' rounding to 9e-6 apart.
        sim = generate(SimulationSpec(m=30, n=24, true_rank=1, sigma=0.1, na_portion=0.2, seed=5))
        xn, info = normalize(sim.x)
        objective = Objective(xn, 0.5, 2)
        x0 = flatten(initial_model(info.row_means, info.col_means, 2, 1))
        opts = OptimizeOptions(algorithm="bfgs", diagonal=objective.diagonal)
        two_loop = minimize(objective, x0, opts)
        monkeypatch.setitem(optim._RULES, "bfgs", DenseBfgsRule)
        dense = minimize(objective, x0, opts)
        assert two_loop.status == dense.status == STATUS_GRAD_TOL
        assert two_loop.iterations == dense.iterations > 10 * optim._LBFGS_MEMORY
        assert abs(two_loop.final_loss - dense.final_loss) <= 1e-10 * abs(dense.final_loss)

    def test_heart_rate_shape_fit_converges(self):
        # bfgs from the loss's diagonal meets the gradient tolerance here in 22
        # iterations from fit's spectral start and in 35 from a random start; from
        # a scalar gamma*I and a random start it stopped at max_iters after 500.
        sim = generate(SimulationSpec(m=288, n=2000, true_rank=2, na_portion=0.7, seed=1))
        xn, info = normalize(sim.x)
        config = FitConfig(tau=0.1, k=1, opts=OptimizeOptions(algorithm="bfgs"), seed=1)
        report = pipeline.fit(xn, info.row_means, info.col_means, config)
        assert report.status == STATUS_GRAD_TOL


def small_fit_problem(k=2, seed=5):
    sim = generate(SimulationSpec(m=30, n=24, true_rank=2, sigma=0.1, na_portion=0.3, seed=seed))
    xn, info = normalize(sim.x)
    return xn, info, flatten(initial_model(info.row_means, info.col_means, k, 1))


def iterates_of(objective, x0, opts):
    iterates = []
    res = minimize(objective, x0, opts, callback=iterates.append)
    return res, iterates


class TestScaledLbfgs:
    def test_unit_diagonal_reproduces_scalar_gamma(self, monkeypatch):
        # gamma * 1.0 is exact, so D = 1 (given or absent) must give the
        # textbook gamma*I iterates bit for bit.
        xn, _, x0 = small_fit_problem()
        objective = Objective(xn, 0.3, 2)
        opts = OptimizeOptions(algorithm="lbfgs", max_iters=60)
        absent = iterates_of(objective, x0, opts)
        ones = iterates_of(objective, x0, replace(opts, diagonal=np.ones_like))
        monkeypatch.setitem(optim._RULES, "lbfgs", ScalarLbfgsRule)
        textbook = iterates_of(objective, x0, opts)
        assert textbook[0].status == STATUS_GRAD_TOL and len(textbook[1]) > optim._LBFGS_MEMORY
        for res, iterates in (absent, ones):
            assert res.function_evals == textbook[0].function_evals
            assert len(iterates) == len(textbook[1])
            assert all(np.array_equal(a, b) for a, b in zip(iterates, textbook[1]))

    @pytest.mark.parametrize("algorithm, kept", [("lbfgs", 10), ("bfgs", 13)])
    def test_direction_matches_dense_oracle(self, algorithm, kept, rng):
        # Three pairs and a reset, then 14 pairs, one of them skipped for lack
        # of curvature: lbfgs keeps the newest 10 and bfgs all 13. D changes
        # with x, so each direction needs its own H0.
        dim = 20
        weights = rng.uniform(0.1, 10.0, size=dim)

        def diagonal(x):
            return weights * (1.0 + x * x)

        rule = optim._RULES[algorithm](diagonal)
        oracle = DenseBfgsRule(diagonal, memory=rule.maxlen)
        s, v = curvature_pair(rng, dim)
        flat = (s, v - float(v @ s) / float(s @ s) * s)
        events = [curvature_pair(rng, dim) for _ in range(3)] + [None]
        events += [curvature_pair(rng, dim) for _ in range(6)] + [flat]
        events += [curvature_pair(rng, dim) for _ in range(7)]
        x, g = rng.normal(size=dim), rng.normal(size=dim)
        assert np.array_equal(rule.direction(g, x), -g)
        counts = []
        for event in events:
            for r in (rule, oracle):
                if event is None:
                    r.reset()
                else:
                    r.update(*event, None, None)
            counts.append(len(rule.pairs))
            x, g = rng.normal(size=dim), rng.normal(size=dim)
            ref = oracle.direction(g, x)
            assert np.abs(rule.direction(g, x) - ref).max() <= 1e-12 * np.abs(ref).max()
        assert counts[2:4] == [3, 0] and counts[10] == counts[9] == 6
        assert counts[-1] == len(oracle.pairs) == kept

    def test_fit_scales_quasi_newton_only(self, monkeypatch):
        # pipeline.fit hands the objective's diagonal to every algorithm;
        # lbfgs and bfgs scale by it, and cg alone must step exactly as it
        # does without it.
        xn, info, _ = small_fit_problem()
        calls = []

        def recording(objective, x0, opts=None, callback=None):
            res, iterates = iterates_of(objective, x0, opts)
            calls.append((objective, x0, opts, iterates))
            return res

        monkeypatch.setattr(pipeline, "minimize", recording)
        for algorithm in ALGORITHMS:
            config = FitConfig(tau=0.3, k=2, opts=OptimizeOptions(algorithm=algorithm, max_iters=60))
            pipeline.fit(xn, info.row_means, info.col_means, config)
            objective, x0, opts, iterates = calls[-1]
            assert opts.diagonal == objective.diagonal
            _, plain_iterates = iterates_of(objective, x0, replace(opts, diagonal=None))
            same = len(iterates) == len(plain_iterates) and all(
                np.array_equal(a, b) for a, b in zip(iterates, plain_iterates)
            )
            assert same == (algorithm == "cg")


class TestReset:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_non_descent_direction_restarts_from_steepest_descent(self, algorithm, monkeypatch):
        # The rule's third direction points uphill; the loop must clear the
        # rule's memory and search along -g instead.
        rule_class = optim._RULES[algorithm]
        direction, wolfe_search = rule_class.direction, optim._wolfe_search
        rules, searches = [], []

        def uphill_once(self, g, x):
            rules.append(self)
            d = direction(self, g, x)
            return g.copy() if len(rules) == 3 else d

        def recording_search(fg, x, d, f0, g0, *args):
            result = wolfe_search(fg, x, d, f0, g0, *args)
            searches.append((x, d, g0, result[0], memory_cleared(rules[-1])))
            return result

        def memory_cleared(rule):
            if algorithm != "cg":
                return len(rule.pairs) == 0
            return None

        monkeypatch.setattr(rule_class, "direction", uphill_once)
        monkeypatch.setattr(optim, "_wolfe_search", recording_search)
        iterates = []
        res = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimizeOptions(algorithm=algorithm),
                       callback=iterates.append)
        x, d, g, alpha, cleared = searches[2]
        assert np.array_equal(d, -g)
        assert alpha > 0.0
        assert np.array_equal(iterates[2], x + alpha * d)
        if algorithm != "cg":
            assert searches[1][4] is False and cleared is True
        assert res.status == STATUS_GRAD_TOL
        assert np.abs(res.x_final - 1.0).max() < 1e-5


class TestFailureModes:
    def test_line_search_failure_reported(self):
        # Gradient lies about the slope, so no step can satisfy Armijo.
        def lying(x):
            return float(x[0]), np.array([-1.0])

        res = minimize(lying, np.array([0.0]), OptimizeOptions(algorithm="bfgs"))
        assert res.status == STATUS_LINE_SEARCH
        assert res.final_loss <= 0.0

    def test_non_finite_objective_raises(self):
        def bad(x):
            return float("nan"), np.zeros_like(x)

        with pytest.raises(ExpectileMFError, match="^objective returned NaN or Inf$"):
            minimize(bad, np.zeros(2))

    def test_max_iters_status(self):
        objective, _ = ill_conditioned_quadratic(30, 1e6, seed=1)
        res = minimize(objective, np.zeros(30), OptimizeOptions(algorithm="cg", max_iters=3))
        assert res.status == STATUS_MAX_ITERS
        assert res.iterations == 3


class TestFiniteDifference:
    def test_square_function(self):
        def objective(x):
            return float(x[0] ** 2), 2.0 * x

        g = finite_difference_gradient(objective, np.array([3.0]), step=1e-6)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant_function(self):
        def objective(x):
            return 4.25, np.zeros_like(x)

        g = finite_difference_gradient(objective, np.ones(4))
        assert np.array_equal(g, np.zeros(4))

    def test_step_domain(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda x: (0.0, x), np.ones(2), step=0.0)

    def test_matches_analytic_on_smooth_function(self, rng):
        center = rng.normal(size=5)
        objective = quadratic(center)
        x = rng.normal(size=5)
        numeric = finite_difference_gradient(objective, x, step=1e-6)
        analytic = objective(x)[1]
        assert np.abs(numeric - analytic).max() < 1e-5
