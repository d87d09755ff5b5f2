import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import expectile_mf.model as model_module
from expectile_mf import (
    ExpectileMFError,
    FactorModel,
    FitConfig,
    MaskedMatrix,
    Objective,
    OptimizeOptions,
    SimulationSpec,
    canonicalize,
    fit,
    fitted_matrix,
    flatten,
    generate,
    initial_model,
    loss_and_gradient,
    minimize,
    normalize,
    orient_rank1,
    unflatten,
)
from expectile_mf.masked import NormalizationInfo
from expectile_mf.model import _split, model_from_dict, model_to_dict
from conftest import FINITE
from oracles import finite_difference_gradient, loop_loss_and_gradient, where_loss_and_gradient


def random_model(rng, n, p, k):
    return FactorModel(
        rng.normal(size=n), rng.normal(size=p), rng.normal(size=(n, k)), rng.normal(size=(p, k))
    )


def random_instance(rng, n=None, p=None, k=None, min_resid=0.0):
    """Model plus data whose residuals are bounded away from the weight switch."""
    n = n or int(rng.integers(2, 9))
    p = p or int(rng.integers(2, 9))
    k = k or int(rng.integers(1, 4))
    model = random_model(rng, n, p, k)
    mask = rng.random((n, p)) > 0.3
    mask[rng.integers(n), rng.integers(p)] = True
    resid = rng.uniform(min_resid, 1.0, size=(n, p)) * rng.choice([-1.0, 1.0], size=(n, p))
    values = np.where(mask, fitted_matrix(model) + resid, 0.0)
    return model, MaskedMatrix(values, mask)


class TestFittedMatrix:
    def test_all_zero(self):
        m = FactorModel(np.zeros(3), np.zeros(2), np.zeros((3, 1)), np.zeros((2, 1)))
        assert np.array_equal(fitted_matrix(m), np.zeros((3, 2)))

    def test_hand_example(self):
        m = FactorModel(
            np.array([1.0, 2.0]),
            np.array([3.0, 4.0]),
            np.array([[1.0], [0.0]]),
            np.array([[5.0], [6.0]]),
        )
        np.testing.assert_array_equal(fitted_matrix(m), [[9.0, 11.0], [5.0, 6.0]])

    def test_matches_entrywise_oracle(self, rng):
        for _ in range(10):
            m, _ = random_instance(rng)
            oracle = np.array(
                [
                    [
                        m.r[i] + m.c[j] + sum(m.u[i, l] * m.v[j, l] for l in range(m.k))
                        for j in range(m.p)
                    ]
                    for i in range(m.n)
                ]
            )
            np.testing.assert_allclose(fitted_matrix(m), oracle, atol=1e-12)


class TestLossAndGradient:
    def test_exact_fit_gives_zero(self, rng):
        model, _ = random_instance(rng)
        x = MaskedMatrix(fitted_matrix(model), np.ones((model.n, model.p), dtype=bool))
        out = loss_and_gradient(model, x, 0.3)
        assert out.loss == 0.0
        assert np.all(out.gradient == 0.0)

    def test_scalar_hand_example(self):
        model = FactorModel(np.array([1.0]), np.array([0.0]), np.zeros((1, 1)), np.zeros((1, 1)))
        x = MaskedMatrix([[2.0]], [[True]])
        out = loss_and_gradient(model, x, 0.3)
        assert abs(out.loss - 0.3) < 1e-15
        assert abs(out.gradient[0] + 0.6) < 1e-15

    def test_matches_scalar_loop_oracle(self, rng):
        for _ in range(15):
            model, x = random_instance(rng)
            t = float(rng.choice([0.1, 0.5, 0.9]))
            out = loss_and_gradient(model, x, t)
            o_loss, o_gr, o_gc, o_gu, o_gv = loop_loss_and_gradient(
                model.r.tolist(), model.c.tolist(), model.u.tolist(), model.v.tolist(),
                x.values.tolist(), x.mask.tolist(), t,
            )
            assert abs(out.loss - o_loss) < 1e-12
            expected = np.concatenate([o_gr, o_gc, o_gu.ravel(), o_gv.ravel()])
            np.testing.assert_allclose(out.gradient, expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(25):
            model, x = random_instance(rng, min_resid=1e-3)
            t = float(rng.choice([0.1, 0.5, 0.9]))

            def objective(vec):
                out = loss_and_gradient(unflatten(vec, model.n, model.p, model.k), x, t)
                return out.loss, out.gradient

            vec = flatten(model)
            analytic = objective(vec)[1]
            numeric = finite_difference_gradient(objective, vec, step=1e-6)
            err = np.abs(numeric - analytic) / np.maximum(1.0, np.abs(analytic))
            assert err.max() <= 1e-5

    def test_mask_independence_bit_identical(self, rng):
        model, x = random_instance(rng)
        t = 0.7
        base = loss_and_gradient(model, x, t)
        for sentinel in (np.nan, np.inf, -1e300, 123.456):
            poisoned = MaskedMatrix(np.where(x.mask, x.values, sentinel), x.mask)
            out = loss_and_gradient(model, poisoned, t)
            assert out.loss == base.loss
            assert np.array_equal(out.gradient, base.gradient)

    def test_tau_half_is_half_masked_mse(self, rng):
        for _ in range(10):
            model, x = random_instance(rng)
            out = loss_and_gradient(model, x, 0.5)
            resid = np.where(x.mask, x.values - fitted_matrix(model), 0.0)
            mse = float(np.sum(resid * resid) / x.observed_count())
            assert out.loss == 0.5 * mse

    def test_scale_identity(self, rng):
        model, x = random_instance(rng)
        for a in (0.5, 2.0, 7.3):
            scaled = FactorModel(model.r, model.c, model.u * a, model.v / a)
            l1 = loss_and_gradient(model, x, 0.2).loss
            l2 = loss_and_gradient(scaled, x, 0.2).loss
            assert abs(l1 - l2) < 1e-10 * (1.0 + abs(l1))

    def test_dimension_mismatch(self, rng):
        model, _ = random_instance(rng, n=3, p=4)
        x = MaskedMatrix(np.zeros((4, 3)), np.ones((4, 3), dtype=bool))
        with pytest.raises(ExpectileMFError, match="^model is 3x4, data is 4x3$"):
            loss_and_gradient(model, x, 0.5)

    def test_empty_mask(self, rng):
        model, _ = random_instance(rng, n=2, p=2)
        x = MaskedMatrix(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ExpectileMFError, match="^no observed cells$"):
            loss_and_gradient(model, x, 0.5)


def poisoned_instance(rng, n, p, k):
    """Random model and data whose unobserved cells hold NaN sentinels."""
    model, x = random_instance(rng, n=n, p=p, k=k)
    return model, MaskedMatrix(np.where(x.mask, x.values, np.nan), x.mask)


def edge_instance(rng, n, p, k):
    """Poisoned instance with a zero u column, a fully unobserved row and
    column, and observed cells equal to 0.0."""
    model, x = poisoned_instance(rng, n, p, k)
    u = model.u.copy()
    u[:, 0] = 0.0
    mask = x.mask.copy()
    mask[rng.integers(1, n), :] = False
    mask[:, rng.integers(1, p)] = False
    mask[0, 0] = True
    values = np.where(rng.random((n, p)) < 0.2, 0.0, x.values)
    values[0, 0] = 0.0
    model = FactorModel(model.r, model.c, u, model.v)
    return model, MaskedMatrix(np.where(mask, values, np.nan), mask)


class TestObjective:
    def test_bit_identical_to_where_oracle(self, rng):
        # Both sides of the t <= 0.5 min/max switch and the switch itself;
        # 150x220 is a size where the k >= 2 operand layout matters.
        for k in (1, 2, 3):
            for t in (0.001, 0.1, 0.5, 0.9, 0.999):
                sizes = [tuple(int(d) for d in rng.integers(2, 40, size=2)) for _ in range(3)]
                for n, p in sizes + [(150, 220)]:
                    for make in (poisoned_instance, edge_instance):
                        model, x = make(rng, n, p, k)
                        loss, grad = Objective(x, t, k)(flatten(model))
                        o_loss, o_grad = where_loss_and_gradient(
                            model.r, model.c, model.u, model.v, x.values, x.mask, t
                        )
                        assert loss == o_loss
                        assert np.array_equal(grad, o_grad)

    @pytest.mark.parametrize("algorithm", ["lbfgs", "cg"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_whole_fit_identical_to_where_oracle(self, algorithm, k):
        # Every iterate of a capped fit, over up to hundreds of evaluations,
        # must match a fit on the np.where form from the same start.
        n, p = 150, 220
        sim = generate(SimulationSpec(m=n, n=p, true_rank=2, sigma=0.3, na_portion=0.3, seed=7))
        xn, info = normalize(sim.x)
        x = MaskedMatrix(np.where(xn.mask, xn.values, np.nan), xn.mask)
        x0 = flatten(initial_model(info.row_means, info.col_means, k, 1))
        for t in (0.1, 0.9):
            # Both sides get the diagonal that pipeline.fit gives lbfgs.
            objective = Objective(x, t, k)
            opts = OptimizeOptions(algorithm=algorithm, max_iters=100, diagonal=objective.diagonal)
            fused = minimize(objective, x0, opts)
            oracle = minimize(
                lambda vec: where_loss_and_gradient(*_split(vec, n, p, k), x.values, x.mask, t),
                x0,
                opts,
            )
            assert fused.status == oracle.status
            assert fused.iterations == oracle.iterations
            assert fused.function_evals == oracle.function_evals
            assert np.array_equal(fused.x_final, oracle.x_final)

    @pytest.mark.parametrize("cells", [1, 50, 1000])
    def test_row_blocks_match_where_oracle(self, cells, rng, monkeypatch):
        # Budgets of 1, 50 and 1000 cells give one-row blocks, blocks with a
        # ragged last one (13 rows of 17 in blocks of 2) and a few blocks. The
        # loss and the c and v parts are sums of per-block sums, so they match
        # the one-block values up to rounding, relative to the largest entry:
        # an entry that cancels to 1e-4 of the largest reads further off.
        monkeypatch.setattr(model_module, "_BLOCK_CELLS", cells)
        for n, p in ((13, 17), (41, 7), (150, 220)):
            for k in (1, 2, 3):
                for t in (0.1, 0.5, 0.9):
                    for make in (poisoned_instance, edge_instance):
                        model, x = make(rng, n, p, k)
                        loss, grad = Objective(x, t, k)(flatten(model))
                        o_loss, o_grad = where_loss_and_gradient(
                            model.r, model.c, model.u, model.v, x.values, x.mask, t
                        )
                        assert loss == pytest.approx(o_loss, rel=1e-12, abs=0.0)
                        np.testing.assert_allclose(
                            grad, o_grad, rtol=0.0, atol=1e-12 * np.abs(o_grad).max()
                        )

    def test_fit_above_block_budget_matches_one_block(self, monkeypatch):
        # 288 x 400 runs as blocks of 122, 122 and 44 rows; the same fit with the
        # whole matrix as one block takes the same path up to rounding.
        n, p = 288, 400
        assert n * p > model_module._BLOCK_CELLS
        sim = generate(SimulationSpec(m=n, n=p, true_rank=1, na_portion=0.7, seed=11))
        xn, info = normalize(sim.x)
        config = FitConfig(tau=0.1, k=1, opts=OptimizeOptions(algorithm="lbfgs"), seed=1)
        blocked = fit(xn, info.row_means, info.col_means, config)
        monkeypatch.setattr(model_module, "_BLOCK_CELLS", n * p)
        whole = fit(xn, info.row_means, info.col_means, config)
        assert blocked.status == whole.status
        assert blocked.final_loss == pytest.approx(whole.final_loss, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_diagonal_is_scaled_hessian_diagonal(self, k, rng):
        # At tau = 0.5 every weight is 1/2 and the loss is quadratic along
        # each coordinate, so n_obs times the central second difference is
        # the diagonal up to rounding. Row 2 has no observed cell: its r and
        # u entries have zero curvature and must sit on the floor.
        model, x = poisoned_instance(rng, 7, 9, k)
        mask = x.mask.copy()
        mask[2] = False
        x = MaskedMatrix(np.where(mask, x.values, np.nan), mask)
        objective = Objective(x, 0.5, k)
        vec = flatten(model)
        f0, step = objective(vec)[0], 1e-3
        hess = np.empty(vec.size)
        for i in range(vec.size):
            e = np.zeros(vec.size)
            e[i] = step
            hess[i] = (objective(vec + e)[0] - 2.0 * f0 + objective(vec - e)[0]) / step**2
        diag = objective.diagonal(vec)
        n, p = x.n_rows, x.n_cols
        empty = np.zeros((n + p) * (1 + k), dtype=bool)
        empty[2] = True
        empty[n + p + 2 * k : n + p + 3 * k] = True
        assert np.all(hess[empty] == 0.0)
        assert np.all(diag[empty] == 1e-8 * diag.max())
        np.testing.assert_allclose(diag[~empty], x.observed_count() * hess[~empty], rtol=1e-6)
        assert diag[0] == mask[0].sum() and diag[n] == mask[:, 0].sum()

    def test_reuse_leaks_no_state(self, rng, monkeypatch):
        # At k = 1 the padded BLAS operands also carry state between calls. A
        # 50-cell budget splits 13 rows of 17 into blocks of 2 and a ragged one.
        for cells in (model_module._BLOCK_CELLS, 50):
            monkeypatch.setattr(model_module, "_BLOCK_CELLS", cells)
            for k in (1, 3):
                model, x = poisoned_instance(rng, 13, 17, k)
                vec1 = flatten(model)
                vec2 = vec1 + rng.normal(size=vec1.size)
                obj = Objective(x, 0.3, k)
                first = obj(vec1)
                kept = first[1].copy()
                obj(vec2)
                again = obj(vec1)
                fresh = Objective(x, 0.3, k)(vec1)
                assert again[0] == fresh[0]
                assert np.array_equal(again[1], fresh[1])
                # Each call hands out its own gradient; later calls must not write into it.
                assert np.array_equal(first[1], kept)
                assert again[1] is not first[1]

    def test_length_mismatch(self, rng):
        _, x = random_instance(rng, n=3, p=4, k=1)
        with pytest.raises(ExpectileMFError, match=r"^expected length 14 for \(3, 4, 1\), got 7$"):
            Objective(x, 0.5, 1)(np.zeros(7))


class TestFlattenUnflatten:
    def test_minimal_length(self):
        m = FactorModel(np.array([1.0]), np.array([2.0]), np.array([[3.0]]), np.array([[4.0]]))
        assert flatten(m).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_length_formula(self, rng):
        m = random_model(rng, 2, 3, 2)
        assert flatten(m).size == 2 + 3 + 4 + 6

    @given(n=st.integers(1, 5), p=st.integers(1, 5), k=st.integers(1, 3),
           seed=st.integers(0, 2**31))
    def test_round_trip_identity(self, n, p, k, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, n, p, k)
        back = unflatten(flatten(m), n, p, k)
        assert np.array_equal(back.r, m.r)
        assert np.array_equal(back.c, m.c)
        assert np.array_equal(back.u, m.u)
        assert np.array_equal(back.v, m.v)

    def test_wrong_length(self):
        with pytest.raises(ExpectileMFError, match=r"^expected length 8 for \(2, 2, 1\), got 7$"):
            unflatten(np.zeros(7), 2, 2, 1)


class TestCanonicalize:
    def assert_canonical(self, m):
        np.testing.assert_allclose(m.v.mean(axis=0), 0.0, atol=1e-10)
        assert abs(m.c.mean()) < 1e-10
        np.testing.assert_allclose(np.linalg.norm(m.u, axis=0), 1.0, atol=1e-10)

    def test_random_models_canonical_and_fit_preserving(self, rng):
        for _ in range(25):
            m = random_model(rng, int(rng.integers(2, 10)), int(rng.integers(2, 10)),
                             int(rng.integers(1, 4)))
            out = canonicalize(m)
            self.assert_canonical(out)
            np.testing.assert_allclose(fitted_matrix(out), fitted_matrix(m), atol=1e-9)

    def test_idempotent(self, rng):
        m = canonicalize(random_model(rng, 6, 5, 2))
        again = canonicalize(m)
        for a, b in ((again.r, m.r), (again.c, m.c), (again.u, m.u), (again.v, m.v)):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rank1_norm_arithmetic(self):
        m = FactorModel(
            np.zeros(2), np.zeros(2), np.array([[3.0], [4.0]]), np.array([[2.0], [-2.0]])
        )
        out = canonicalize(m)
        np.testing.assert_allclose(out.u[:, 0], [0.6, 0.8], atol=1e-15)
        np.testing.assert_allclose(out.v[:, 0], [10.0, -10.0], atol=1e-12)

    def test_zero_column_warns_and_leaves_unscaled(self):
        m = FactorModel(
            np.zeros(2), np.zeros(2), np.zeros((2, 1)), np.array([[1.0], [3.0]])
        )
        with pytest.warns(UserWarning, match=r"^u column 0 has norm 0; left unscaled$"):
            out = canonicalize(m)
        assert np.array_equal(out.u, np.zeros((2, 1)))

    def test_loss_preserved(self, rng):
        model, x = random_instance(rng)
        before = loss_and_gradient(model, x, 0.3).loss
        after = loss_and_gradient(canonicalize(model), x, 0.3).loss
        assert abs(before - after) < 1e-12 * (1.0 + abs(before))


class TestOrientRank1:
    def test_flip(self, rng):
        m = random_model(rng, 4, 3, 1)
        m = FactorModel(m.r, m.c, -np.abs(m.u), m.v)
        out = orient_rank1(m, 2)
        assert out.u[2, 0] > 0
        np.testing.assert_allclose(fitted_matrix(out), fitted_matrix(m), atol=1e-12)

    def test_no_flip(self, rng):
        m = random_model(rng, 4, 3, 1)
        m = FactorModel(m.r, m.c, np.abs(m.u), m.v)
        out = orient_rank1(m, 2)
        assert np.array_equal(out.u, m.u)

    def test_rank_guard(self, rng):
        m = random_model(rng, 4, 3, 2)
        with pytest.raises(ExpectileMFError, match="^orientation applies only to k = 1, got k = 2$"):
            orient_rank1(m, 0)

    def test_pivot_range(self, rng):
        m = random_model(rng, 4, 3, 1)
        with pytest.raises(ValueError):
            orient_rank1(m, 7)


def json_round_trip(model, tau, info):
    return model_from_dict(json.loads(json.dumps(model_to_dict(model, tau, info))))


class TestModelJson:
    def test_round_trip_with_normalization(self, rng):
        m = random_model(rng, 5, 4, 2)
        info = NormalizationInfo(
            mean=3.25, std=1.75, row_means=rng.normal(size=5), col_means=rng.normal(size=4)
        )
        doc = model_to_dict(m, 0.7, info)
        assert list(doc) == ["n", "p", "k", "tau", "r", "c", "u", "v", "normalization"]
        assert list(doc["normalization"]) == ["mean", "std", "row_means", "col_means"]
        back, tau, back_info = json_round_trip(m, 0.7, info)
        assert tau == 0.7
        assert np.array_equal(back.r, m.r)
        assert np.array_equal(back.u, m.u)
        assert back_info.std == info.std
        np.testing.assert_array_equal(back_info.row_means, info.row_means)

    @given(data=st.data())
    def test_round_trip_bit_exact(self, data):
        n, p, k = (data.draw(st.integers(1, 6)) for _ in range(3))
        model = FactorModel(*(data.draw(arrays(np.float64, shape, elements=FINITE))
                              for shape in ((n,), (p,), (n, k), (p, k))))
        tau = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        info = data.draw(st.builds(
            NormalizationInfo,
            mean=FINITE,
            std=st.sampled_from([5e-324, 1.7976931348623157e308])
            | st.floats(0.0, exclude_min=True, allow_infinity=False),
            row_means=arrays(np.float64, (n,), elements=FINITE),
            col_means=arrays(np.float64, (p,), elements=FINITE),
        ))
        back, back_tau, back_info = json_round_trip(model, tau, info)
        for name in "rcuv":
            a, b = getattr(model, name), getattr(back, name)
            assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
        assert repr(back_tau) == repr(tau)
        for name in ("mean", "std", "row_means", "col_means"):
            a, b = (np.asarray(getattr(i, name), dtype=float) for i in (info, back_info))
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_round_trip_loss_exact(self, rng):
        model, x = random_instance(rng)
        info = NormalizationInfo(mean=0.0, std=1.0, row_means=np.zeros(model.n),
                                 col_means=np.zeros(model.p))
        back, tau, _ = json_round_trip(model, 0.4, info)
        l0 = loss_and_gradient(model, x, 0.4).loss
        l1 = loss_and_gradient(back, x, tau).loss
        assert abs(l0 - l1) < 1e-12
