import numpy as np
import pytest

from expectile_mf import (
    FactorModel,
    FitConfig,
    MaskedMatrix,
    OptimizeOptions,
    UnnormalizedDataWarning,
    fit,
    fitted_matrix,
    initial_model,
    masked_col_means,
    masked_row_means,
    normalize,
    tau_sweep,
)
from expectile_mf.simulate import SimulationSpec, generate


def small_normalized_data(seed=0, m=30, n=24, true_rank=1, sigma=0.05, na=0.2):
    sim = generate(SimulationSpec(m=m, n=n, sigma=sigma, na_portion=na,
                                  true_rank=true_rank, seed=seed))
    xn, info = normalize(sim.x)
    return xn, info


def exact_rank1_matrix(seed=1, m=20, n=16):
    rng = np.random.default_rng(seed)
    model = FactorModel(
        rng.normal(size=m), rng.normal(size=n),
        rng.normal(size=(m, 1)), rng.normal(size=(n, 1)),
    )
    values = fitted_matrix(model)
    values = (values - values.mean()) / values.std()
    return MaskedMatrix(values, np.ones((m, n), dtype=bool))


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(tau=0.5, k=0)
        with pytest.raises(ValueError):
            FitConfig(tau=1.5, k=1)
        with pytest.raises(ValueError):
            FitConfig(tau=0.5, k=1, n_restarts=0)

    def test_warm_start_rejects_restarts(self):
        warm = initial_model(np.zeros(3), np.zeros(4), 1, seed=0)
        FitConfig(tau=0.5, k=1, warm_start=warm)
        with pytest.raises(ValueError):
            FitConfig(tau=0.5, k=1, n_restarts=4, warm_start=warm)


class TestInitialModel:
    def test_additive_terms_are_means(self):
        rm, cm = np.arange(3.0), np.arange(4.0)
        m = initial_model(rm, cm, 2, seed=0)
        assert np.array_equal(m.r, rm)
        assert np.array_equal(m.c, cm)
        assert m.u.shape == (3, 2) and m.v.shape == (4, 2)

    def test_seeded_and_distinct(self):
        rm, cm = np.zeros(3), np.zeros(4)
        a = initial_model(rm, cm, 2, seed=7)
        b = initial_model(rm, cm, 2, seed=7)
        c = initial_model(rm, cm, 2, seed=8)
        assert np.array_equal(a.u, b.u)
        assert not np.array_equal(a.u, c.u)


class TestFit:
    def test_exact_rank1_reaches_zero_loss(self):
        x = exact_rank1_matrix()
        config = FitConfig(tau=0.5, k=1, opts=OptimizeOptions(algorithm="lbfgs"), seed=3)
        report = fit(x, masked_row_means(x), masked_col_means(x), config)
        assert report.final_loss < 1e-8

    def test_canonical_model_returned(self):
        xn, info = small_normalized_data()
        report = fit(xn, info.row_means, info.col_means,
                     FitConfig(tau=0.3, k=1, seed=5))
        m = report.model
        np.testing.assert_allclose(m.v.mean(axis=0), 0.0, atol=1e-9)
        assert abs(m.c.mean()) < 1e-9
        np.testing.assert_allclose(np.linalg.norm(m.u, axis=0), 1.0, atol=1e-9)

    def test_orientation_applied_when_pivot_given(self):
        xn, info = small_normalized_data(seed=3)
        report = fit(xn, info.row_means, info.col_means,
                     FitConfig(tau=0.5, k=1, seed=5, orient_pivot=4))
        assert report.model.u[4, 0] >= 0.0

    def test_deterministic(self):
        xn, info = small_normalized_data(seed=4)
        config = FitConfig(tau=0.4, k=2, seed=9, n_restarts=2)
        a = fit(xn, info.row_means, info.col_means, config)
        b = fit(xn, info.row_means, info.col_means, config)
        assert a.final_loss == b.final_loss
        assert a.restart_losses == b.restart_losses
        assert np.array_equal(a.model.u, b.model.u)

    def test_best_restart_selected(self):
        xn, info = small_normalized_data(seed=5)
        report = fit(xn, info.row_means, info.col_means,
                     FitConfig(tau=0.5, k=1, seed=2, n_restarts=3))
        assert len(report.restart_losses) == 3
        assert report.final_loss == min(report.restart_losses)

    def test_warm_start_overrides_initialization(self):
        xn, info = small_normalized_data(seed=6)
        base = fit(xn, info.row_means, info.col_means, FitConfig(tau=0.5, k=1, seed=1))
        warm = fit(
            xn, info.row_means, info.col_means,
            FitConfig(tau=0.5, k=1, seed=999, warm_start=base.model),
        )
        assert len(warm.restart_losses) == 1
        assert warm.final_loss <= base.final_loss + 1e-12
        assert warm.iterations <= base.iterations

    def test_unnormalized_data_warns_but_fits(self):
        x = exact_rank1_matrix()
        shifted = MaskedMatrix(x.values * 10.0 + 5.0, x.mask)
        with pytest.warns(UnnormalizedDataWarning):
            report = fit(shifted, masked_row_means(shifted), masked_col_means(shifted),
                         FitConfig(tau=0.5, k=1, seed=0))
        assert report.final_loss < 1e-6

    def test_fully_missing_row_and_column_are_harmless(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(10, 8))
        mask = np.ones((10, 8), dtype=bool)
        mask[4, :] = False
        mask[:, 2] = False
        x = MaskedMatrix(np.where(mask, values, 0.0), mask)
        xn, info = normalize(x)
        assert info.row_means[4] == 0.0 and info.col_means[2] == 0.0
        report = fit(xn, info.row_means, info.col_means, FitConfig(tau=0.3, k=1, seed=1))
        assert np.all(np.isfinite(fitted_matrix(report.model)))
        assert report.status == "grad_tolerance_met"

    def test_rank_monotonicity(self):
        xn, info = small_normalized_data(seed=7, true_rank=2, sigma=0.2)
        losses = []
        for k in (1, 2, 3, 4):
            report = fit(xn, info.row_means, info.col_means,
                         FitConfig(tau=0.5, k=k, seed=11, n_restarts=2))
            losses.append(report.final_loss)
        for lo, hi in zip(losses[1:], losses):
            assert lo <= hi + 1e-9


class TestTauSweep:
    def test_single_half_tau_equals_direct_fit(self):
        xn, info = small_normalized_data(seed=8)
        config = FitConfig(tau=0.5, k=1, seed=13, n_restarts=2)
        direct = fit(xn, info.row_means, info.col_means, config)
        sweep = tau_sweep(xn, info.row_means, info.col_means, config, [0.5])
        assert len(sweep) == 1
        assert abs(sweep[0].final_loss - direct.final_loss) < 1e-9

    def test_order_matches_request(self):
        xn, info = small_normalized_data(seed=9)
        config = FitConfig(tau=0.5, k=1, seed=13)
        reports = tau_sweep(xn, info.row_means, info.col_means, config, [0.1, 0.5, 0.9])
        assert len(reports) == 3
        direct = fit(xn, info.row_means, info.col_means, config)
        assert abs(reports[1].final_loss - direct.final_loss) < 1e-9

    def test_mean_fitted_value_non_decreasing_in_tau(self):
        xn, info = small_normalized_data(seed=10, sigma=0.3)
        config = FitConfig(tau=0.5, k=1, seed=21, n_restarts=2)
        reports = tau_sweep(xn, info.row_means, info.col_means, config, [0.1, 0.5, 0.9])
        means = [fitted_matrix(r.model)[xn.mask].mean() for r in reports]
        assert means[0] <= means[1] + 1e-6
        assert means[1] <= means[2] + 1e-6

    def test_empty_taus_rejected(self):
        xn, info = small_normalized_data(seed=11)
        with pytest.raises(ValueError):
            tau_sweep(xn, info.row_means, info.col_means, FitConfig(), [])
