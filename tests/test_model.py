import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expectile_mf import (
    DimensionMismatch,
    EmptyMask,
    FactorModel,
    LengthMismatch,
    MaskedMatrix,
    Objective,
    RankNotOne,
    ZeroColumnWarning,
    canonicalize,
    finite_difference_gradient,
    fitted_matrix,
    flatten,
    load_model_json,
    loss_and_gradient,
    orient_rank1,
    save_model_json,
    unflatten,
)
from expectile_mf.masked import NormalizationInfo
from oracles import loop_loss_and_gradient, where_loss_and_gradient


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
        with pytest.raises(DimensionMismatch):
            loss_and_gradient(model, x, 0.5)

    def test_empty_mask(self, rng):
        model, _ = random_instance(rng, n=2, p=2)
        x = MaskedMatrix(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(EmptyMask):
            loss_and_gradient(model, x, 0.5)


def poisoned_instance(rng, n, p, k):
    """Random model and data whose unobserved cells hold NaN sentinels."""
    model, x = random_instance(rng, n=n, p=p, k=k)
    return model, MaskedMatrix(np.where(x.mask, x.values, np.nan), x.mask)


class TestObjective:
    def test_bit_identical_to_where_oracle(self, rng):
        for k in (1, 3):
            for t in (0.1, 0.5, 0.9):
                sizes = [tuple(int(d) for d in rng.integers(2, 40, size=2)) for _ in range(3)]
                for n, p in sizes + [(150, 220)]:
                    model, x = poisoned_instance(rng, n, p, k)
                    loss, grad = Objective(x, t, k)(flatten(model))
                    o_loss, o_grad = where_loss_and_gradient(
                        model.r, model.c, model.u, model.v, x.values, x.mask, t
                    )
                    assert loss == o_loss
                    assert np.array_equal(grad, o_grad)

    def test_reuse_leaks_no_state(self, rng):
        model, x = poisoned_instance(rng, 13, 17, 3)
        vec1 = flatten(model)
        vec2 = vec1 + rng.normal(size=vec1.size)
        obj = Objective(x, 0.3, 3)
        first = obj(vec1)
        kept = first[1].copy()
        obj(vec2)
        again = obj(vec1)
        fresh = Objective(x, 0.3, 3)(vec1)
        assert again[0] == fresh[0]
        assert np.array_equal(again[1], fresh[1])
        # Each call hands out its own gradient; later calls must not write into it.
        assert np.array_equal(first[1], kept)
        assert again[1] is not first[1]

    def test_length_mismatch(self, rng):
        _, x = random_instance(rng, n=3, p=4, k=1)
        with pytest.raises(LengthMismatch):
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
        with pytest.raises(LengthMismatch):
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
        with pytest.warns(ZeroColumnWarning):
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
        with pytest.raises(RankNotOne):
            orient_rank1(m, 0)

    def test_pivot_range(self, rng):
        m = random_model(rng, 4, 3, 1)
        with pytest.raises(ValueError):
            orient_rank1(m, 7)


class TestModelJson:
    def test_round_trip_with_normalization(self, tmp_path, rng):
        m = random_model(rng, 5, 4, 2)
        info = NormalizationInfo(
            mean=3.25, std=1.75, row_means=rng.normal(size=5), col_means=rng.normal(size=4)
        )
        path = tmp_path / "model.json"
        save_model_json(path, m, tau=0.7, normalization=info)
        back, tau, back_info = load_model_json(path)
        assert tau == 0.7
        assert np.array_equal(back.r, m.r)
        assert np.array_equal(back.u, m.u)
        assert back_info.std == info.std
        np.testing.assert_array_equal(back_info.row_means, info.row_means)

    def test_round_trip_loss_exact(self, tmp_path, rng):
        model, x = random_instance(rng)
        path = tmp_path / "model.json"
        save_model_json(path, model, tau=0.4)
        back, tau, _ = load_model_json(path)
        l0 = loss_and_gradient(model, x, 0.4).loss
        l1 = loss_and_gradient(back, x, tau).loss
        assert abs(l0 - l1) < 1e-12
