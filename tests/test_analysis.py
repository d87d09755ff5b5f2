import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expectile_mf import (
    DegenerateVariance,
    FactorModel,
    FitConfig,
    GroupedSeries,
    NormalizationInfo,
    RankNotOne,
    SimulationSpec,
    band_curves,
    compare_algorithms,
    denormalize_params,
    generate,
    icc,
    init_resilience,
    normalize,
    rank_sweep,
    rmse_from_loss,
)
from expectile_mf import analysis
from oracles import icc_two_pass


def grouped(values, groups):
    return GroupedSeries(np.asarray(values, dtype=float), np.asarray(groups))


class TestIcc:
    def test_perfect_grouping(self):
        assert icc(grouped([1, 1, 2, 2], ["a", "a", "b", "b"])) == 1.0

    def test_identical_group_means(self):
        assert icc(grouped([1, 2, 1, 2], ["a", "a", "b", "b"])) == 0.0

    def test_matches_two_pass_oracle(self, rng):
        for _ in range(50):
            n_groups = int(rng.integers(2, 6))
            sizes = rng.integers(1, 8, size=n_groups)
            groups = np.repeat(np.arange(n_groups), sizes)
            values = rng.normal(size=groups.size) + groups * rng.uniform(0, 2)
            got = icc(grouped(values, groups))
            want = icc_two_pass(values.tolist(), groups.tolist())
            assert abs(got - want) < 1e-12

    def test_range(self, rng):
        for _ in range(20):
            values = rng.normal(size=30)
            groups = rng.integers(0, 4, size=30)
            if np.unique(groups).size < 2:
                continue
            v = icc(grouped(values, groups))
            assert 0.0 <= v <= 1.0

    @given(shift=st.floats(min_value=-50, max_value=50),
           scale=st.floats(min_value=0.1, max_value=50))
    def test_shift_and_scale_invariance(self, shift, scale):
        values = np.array([0.5, 1.5, 0.7, 3.2, 3.0, 2.8])
        groups = np.array([0, 0, 0, 1, 1, 1])
        base = icc(grouped(values, groups))
        moved = icc(grouped(values * scale + shift, groups))
        assert abs(base - moved) < 1e-9

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            icc(grouped([2.0, 2.0, 2.0, 2.0], ["a", "a", "b", "b"]))

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            GroupedSeries(np.array([1.0, 2.0]), np.array(["a", "a"]))


class TestRmseFromLoss:
    def test_symbolic_points(self):
        for loss, std in [(0.2658, 16.0), (0.5, 1.0), (0.125, 4.0)]:
            assert rmse_from_loss(loss, std) == float(np.sqrt(2.0 * loss * std * std))

    def test_reported_heart_rate_scale(self):
        # exact value 11.6657...; the published figure rounds it to 11.667
        assert abs(rmse_from_loss(0.2658, 16.0) - 11.667) < 5e-3


class TestDenormalizeParams:
    def test_identity_scale(self, rng):
        m = FactorModel(rng.normal(size=4), rng.normal(size=3),
                        rng.normal(size=(4, 1)), rng.normal(size=(3, 1)))
        info = NormalizationInfo(mean=0.0, std=1.0, row_means=np.zeros(4), col_means=np.zeros(3))
        out = denormalize_params(m, info)
        np.testing.assert_array_equal(out.r_dn, m.r)
        np.testing.assert_array_equal(out.u_dn, m.u)

    def test_scaling_arithmetic(self):
        m = FactorModel(np.array([0.5]), np.array([0.25]),
                        np.array([[0.5]]), np.array([[1.0]]))
        info = NormalizationInfo(mean=60.0, std=16.0, row_means=np.zeros(1), col_means=np.zeros(1))
        out = denormalize_params(m, info)
        assert out.r_dn[0] == 8.0
        assert out.u_dn[0, 0] == 8.0
        assert out.c_norm[0] == 0.25  # stays on the normalized scale
        assert out.v_norm[0, 0] == 1.0


class TestBandCurves:
    def make_info(self, n, p, std=2.0):
        return NormalizationInfo(mean=1.0, std=std, row_means=np.zeros(n), col_means=np.zeros(p))

    def test_constant_v_collapses_band(self, rng):
        m = FactorModel(rng.normal(size=5), rng.normal(size=4),
                        rng.normal(size=(5, 1)), np.full((4, 1), 0.37))
        lower, center, upper = band_curves(m, self.make_info(5, 4))
        np.testing.assert_array_equal(lower, center)
        np.testing.assert_array_equal(upper, center)

    def test_identity_algebra(self, rng):
        m = FactorModel(rng.normal(size=6), rng.normal(size=5),
                        rng.normal(size=(6, 1)), rng.normal(size=(5, 1)))
        info = self.make_info(6, 5, std=16.0)
        lower, center, upper = band_curves(m, info)
        half = float(np.std(m.v[:, 0])) * (m.u[:, 0] * info.std)
        np.testing.assert_array_equal(upper, center + half)
        np.testing.assert_array_equal(lower, center - half)
        width_err = np.abs((upper - lower) - 2.0 * half)
        assert width_err.max() <= 8 * np.finfo(float).eps * (1.0 + np.abs(center).max())

    def test_matches_entrywise_oracle(self, rng):
        m = FactorModel(rng.normal(size=4), rng.normal(size=3),
                        rng.normal(size=(4, 1)), rng.normal(size=(3, 1)))
        info = self.make_info(4, 3, std=3.0)
        lower, center, upper = band_curves(m, info)
        v_std = float(np.std([m.v[j, 0] for j in range(3)]))
        for i in range(4):
            c = m.r[i] * 3.0
            h = v_std * m.u[i, 0] * 3.0
            assert abs(center[i] - c) < 1e-12
            assert abs(upper[i] - (c + h)) < 1e-12
            assert abs(lower[i] - (c - h)) < 1e-12

    def test_rank_guard(self, rng):
        m = FactorModel(rng.normal(size=4), rng.normal(size=3),
                        rng.normal(size=(4, 2)), rng.normal(size=(3, 2)))
        with pytest.raises(RankNotOne):
            band_curves(m, self.make_info(4, 3))


def tiny_spec(seed=0):
    return SimulationSpec(m=24, n=20, sigma=0.2, na_portion=0.2, true_rank=1, seed=seed)


class TestInitResilience:
    def test_two_trials_one_pair(self):
        sim = generate(tiny_spec())
        xn, info = normalize(sim.x)
        res = init_resilience(xn, FitConfig(tau=0.5, k=1, seed=3), 2)
        assert res.loss_diff.shape == (2, 2)
        assert res.loss_diff[0, 0] == 0.0 and res.mad[1, 1] == 0.0
        assert res.loss_diff[0, 1] == res.loss_diff[1, 0]
        assert res.mad[0, 1] == res.mad[1, 0]

    def test_deterministic(self):
        sim = generate(tiny_spec(1))
        xn, _ = normalize(sim.x)
        a = init_resilience(xn, FitConfig(tau=0.5, k=1, seed=3), 3)
        b = init_resilience(xn, FitConfig(tau=0.5, k=1, seed=3), 3)
        assert np.array_equal(a.loss_diff, b.loss_diff)
        assert np.array_equal(a.mad, b.mad)

    def test_needs_two_trials(self):
        sim = generate(tiny_spec())
        xn, _ = normalize(sim.x)
        with pytest.raises(ValueError):
            init_resilience(xn, FitConfig(), 1)


class TestCompareAlgorithms:
    def test_single_dataset_single_init(self):
        result = compare_algorithms(tiny_spec(2), 1, 1, tau=0.5, k=1)
        assert len(result.per_dataset) == 1
        assert {row["algorithm"] for row in result.summary} == {"bfgs", "lbfgs", "cg"}
        wins = sum(row["n_min_loss"] for row in result.summary)
        assert wins == 1

    def test_deterministic_losses(self):
        a = compare_algorithms(tiny_spec(3), 2, 2, tau=0.3, k=1)
        b = compare_algorithms(tiny_spec(3), 2, 2, tau=0.3, k=1)
        for row_a, row_b in zip(a.per_dataset, b.per_dataset):
            for algo in ("bfgs", "lbfgs", "cg"):
                assert row_a[f"{algo}_loss"] == row_b[f"{algo}_loss"]

    def test_only_one_thread_accepted(self):
        with pytest.raises(ValueError, match="threads must be 1, got 2"):
            compare_algorithms(tiny_spec(4), 1, 1, tau=0.5, k=1, threads=2)


class TestRankSweep:
    def test_single_cell(self):
        result = rank_sweep(tiny_spec(5), [0.5], [1], ["lbfgs"], n_trials=2)
        assert len(result.aggregate) == 1
        assert len(result.records) == 2
        row = result.aggregate[0]
        assert row["rank"] == 1 and row["algorithm"] == "lbfgs"

    def test_loss_decreases_with_rank_on_rank2_truth(self):
        spec = SimulationSpec(m=40, n=32, sigma=0.1, na_portion=0.2, true_rank=2, seed=6)
        result = rank_sweep(spec, [0.5], [1, 2], ["lbfgs"], n_trials=3)
        by_rank = {row["rank"]: row["mean_loss"] for row in result.aggregate}
        assert by_rank[1] > by_rank[2]

    def test_deterministic_records(self):
        a = rank_sweep(tiny_spec(7), [0.5], [1], ["cg"], n_trials=2)
        b = rank_sweep(tiny_spec(7), [0.5], [1], ["cg"], n_trials=2)
        for rec_a, rec_b in zip(a.records, b.records):
            assert rec_a["loss"] == rec_b["loss"]
            assert rec_a["iterations"] == rec_b["iterations"]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            rank_sweep(tiny_spec(), [], [1], ["lbfgs"])

    @pytest.mark.parametrize("ranks, n_trials", [([1], 0), ([1, 0], 1)], ids=["trials", "ranks"])
    def test_bad_counts_rejected_before_any_data(self, monkeypatch, ranks, n_trials):
        monkeypatch.setattr(analysis, "generate", lambda spec: pytest.fail("data generated"))
        with pytest.raises(ValueError, match=">= 1"):
            rank_sweep(tiny_spec(), [0.5], ranks, ["lbfgs"], n_trials=n_trials)
