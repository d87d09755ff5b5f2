import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expectile_mf import (
    ExpectileMFError,
    MaskedMatrix,
    check_tau,
    marginal_expectile_curves,
    scalar_expectile,
)
from oracles import expectile_grid_bisect

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
samples = st.lists(finite_floats, min_size=1, max_size=40)
taus = st.floats(min_value=0.01, max_value=0.99)


class TestTau:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_domain_enforced(self, bad):
        with pytest.raises(ValueError, match=r"tau must be in \(0, 1\)"):
            check_tau(bad)

    def test_value_kept(self):
        assert check_tau(0.25) == 0.25


class TestScalarExpectile:
    def test_mean_at_half(self):
        assert scalar_expectile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_equals_mean_bitwise_at_half(self, rng):
        for _ in range(20):
            s = rng.normal(size=rng.integers(1, 30))
            assert abs(scalar_expectile(s, 0.5) - float(np.mean(s))) < 1e-12

    def test_skewed_sample_frozen_value(self):
        # grid+bisection oracle pins this at 7.5 (also exact by hand algebra)
        got = scalar_expectile([0.0, 0.0, 0.0, 10.0], 0.9)
        assert abs(got - 7.5) < 1e-9
        assert abs(expectile_grid_bisect([0.0, 0.0, 0.0, 10.0], 0.9) - 7.5) < 1e-9

    def test_degenerate_sample(self):
        assert scalar_expectile([4.0] * 7, 0.123) == 4.0

    def test_empty_sample(self):
        with pytest.raises(ExpectileMFError, match="cannot take the expectile of an empty sample"):
            scalar_expectile([], 0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            scalar_expectile([1.0, np.inf], 0.5)

    def test_overflowing_sum_rejected(self):
        # the weighted sum of the first iterate overflows; the mean of the sample,
        # which a stopping test on inf <= inf would return, is not its 0.9 expectile
        with pytest.raises(ExpectileMFError, match=r"^values overflow: expectile iterate inf$"):
            scalar_expectile([1.7e308, -1.7e308, 1.7e308], 0.9)

    def test_oracle_equivalence_100_random_samples(self, rng):
        for _ in range(100):
            size = int(rng.integers(1, 51))
            s = rng.normal(scale=rng.uniform(0.5, 3.0), size=size) + rng.uniform(-5, 5)
            t = float(rng.uniform(0.05, 0.95))
            assert abs(scalar_expectile(s, t) - expectile_grid_bisect(s, t)) < 1e-6

    @given(s=samples, t1=taus, t2=taus)
    def test_monotone_in_tau(self, s, t1, t2):
        lo, hi = sorted((t1, t2))
        assert scalar_expectile(s, lo) <= scalar_expectile(s, hi) + 1e-9

    @given(s=samples, t=taus,
           a=st.floats(min_value=0.01, max_value=100.0),
           b=st.floats(min_value=-100.0, max_value=100.0))
    def test_location_scale_equivariance(self, s, t, a, b):
        base = scalar_expectile(s, t)
        moved = scalar_expectile([a * x + b for x in s], t)
        assert abs(moved - (a * base + b)) <= 1e-9 * (1.0 + abs(a * base + b))

    @given(s=samples, t=taus)
    def test_bounded_by_sample_range(self, s, t):
        e = scalar_expectile(s, t)
        slack = 1e-12 * (1.0 + max(abs(x) for x in s))
        assert min(s) - slack <= e <= max(s) + slack


class TestMarginalCurves:
    def test_single_row(self):
        x = MaskedMatrix([[1.0, 2.0, 3.0]], [[True, True, True]])
        out = marginal_expectile_curves(x, [0.5])
        assert out.shape == (1, 1)
        assert out[0, 0] == 2.0

    def test_rows_non_decreasing_over_sorted_taus(self, rng):
        values = rng.normal(size=(6, 15))
        mask = rng.random((6, 15)) > 0.2
        mask[:, 0] = True
        x = MaskedMatrix(np.where(mask, values, 0.0), mask)
        out = marginal_expectile_curves(x, [0.1, 0.3, 0.5, 0.7, 0.9])
        assert np.all(np.diff(out, axis=1) >= -1e-9)

    def test_empty_row_named(self):
        x = MaskedMatrix([[1.0], [0.0]], [[True], [False]])
        with pytest.raises(ExpectileMFError, match="^row 1 has no observed entries$"):
            marginal_expectile_curves(x, [0.5])

    def test_only_observed_entries_used(self):
        x = MaskedMatrix([[1.0, 2.0, 3.0, 999.0]], [[True, True, True, False]])
        out = marginal_expectile_curves(x, [0.5])
        assert out[0, 0] == 2.0
