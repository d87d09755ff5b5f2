import math

import numpy as np
import pytest

from expectile_mf import (
    FactorModel,
    FitConfig,
    MaskedMatrix,
    OptimizeOptions,
    fit,
    fitted_matrix,
    initial_model,
    masked_col_means,
    masked_row_means,
    normalize,
    tau_sweep,
)
from expectile_mf import pipeline
from expectile_mf.simulate import SimulationSpec, generate
from oracles import mean_matrix


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

    def test_tau_is_a_plain_float(self):
        tau = FitConfig(tau=0.25).tau
        assert type(tau) is float and tau == 0.25
        assert type(FitConfig(tau=np.float32(0.5)).tau) is float

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

    @pytest.mark.parametrize("pivot", [-1, 30, 999])
    def test_pivot_out_of_range_rejected_before_optimizing(self, pivot, monkeypatch):
        xn, info = small_normalized_data(seed=3)
        calls = []
        monkeypatch.setattr(pipeline, "minimize", lambda *args: calls.append(args))
        config = FitConfig(tau=0.5, k=1, n_restarts=3, seed=5, orient_pivot=pivot)
        with pytest.raises(ValueError, match=f"orient_pivot {pivot} out of range for 30 rows"):
            fit(xn, info.row_means, info.col_means, config)
        assert calls == []

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


class TestTauMirror:
    """fit(-X, 1 - tau) from the mirrored start (-r, -c, -u, v) is fit(X, tau) negated.

    The loss weights a residual e by tau or 1 - tau as e >= 0 or e < 0, so negating the
    data and the fitted matrix while swapping tau for 1 - tau maps the loss and gradient
    onto themselves. Negation rounds exactly, so where 1 - (1 - tau) == tau the two fits
    take the same steps bit for bit. 40 x 30 at k = 2 is one block of the loss kernel, and
    288 x 400 runs in blocks of rows (model._BLOCK_CELLS).
    """

    @pytest.mark.parametrize("tau", [0.25, 0.9])
    @pytest.mark.parametrize("rows, cols, k", [(40, 30, 2), (288, 400, 1)],
                             ids=["one-block", "row-blocks"])
    @pytest.mark.parametrize("algorithm", ["lbfgs", "bfgs", "cg"])
    def test_mirrored_fit_is_the_negated_fit(self, algorithm, rows, cols, k, tau):
        xn, info = small_normalized_data(seed=3, m=rows, n=cols, sigma=0.3, na=0.5)
        neg = MaskedMatrix(-xn.values, xn.mask)
        start = initial_model(info.row_means, info.col_means, k, seed=4)
        mirrored_start = FactorModel(-start.r, -start.c, -start.u, start.v)
        opts = OptimizeOptions(algorithm=algorithm)
        report = fit(xn, info.row_means, info.col_means,
                     FitConfig(tau=tau, k=k, opts=opts, warm_start=start))
        mirrored = fit(neg, -info.row_means, -info.col_means,
                       FitConfig(tau=1.0 - tau, k=k, opts=opts, warm_start=mirrored_start))
        assert (mirrored.iterations, mirrored.function_evals, mirrored.final_loss) == (
            report.iterations, report.function_evals, report.final_loss)
        got, want = mirrored.model, report.model
        for mirrored_part, part in ((got.r, -want.r), (got.c, -want.c), (got.u, -want.u),
                                    (got.v, want.v)):
            assert (mirrored_part == part).all()


def normal_expectile(tau):
    """tau-expectile e of the standard normal: the root of
    tau * E[(Z - e)+] = (1 - tau) * E[(e - Z)+], with E[(Z - e)+] = phi(e) - e (1 - Phi(e))
    and E[(e - Z)+] = e Phi(e) + phi(e); the difference falls in e, so bisect."""
    def excess(e):
        pdf = math.exp(-0.5 * e * e) / math.sqrt(2.0 * math.pi)
        cdf = 0.5 * (1.0 + math.erf(e / math.sqrt(2.0)))
        return tau * (pdf - e * (1.0 - cdf)) - (1.0 - tau) * (e * cdf + pdf)
    lo, hi = -10.0, 10.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


class TestPlantedRecovery:
    """A fit at the true rank recovers the planted tau-expectile surface and column subspace.

    The data are BENCH_SPEC's (200x200, 30% missing, rank 2, Gaussian noise
    sigma = 0.3). Cell (i, j) is mu_ij + sigma Z, so its tau-expectile is
    mu_ij + sigma e_tau, a surface of the fitted form (the shift joins the
    additive terms). Both bounds were fixed from the theory below before the
    test was first run.

    RMS bound. The model has d = (n + p)(k + 1) parameters fit to n_obs cells.
    For least squares (tau = 0.5) the fitted surface is, to first order, the
    truth plus the projection of the noise onto a d-dimensional tangent space,
    so its mean squared error over the observed cells is sigma^2 d / n_obs.
    MCAR holes make unobserved cells exchangeable with observed ones, so the
    same scale holds there. For an expectile the sandwich variance multiplies
    this by eta_tau = E[w^2 (Z - e_tau)^2] / E[w]^2, with w = tau above e_tau
    and 1 - tau below; eta = 1 at tau = 0.5 and 1.51 at tau = 0.1 and 0.9, so
    the RMS should be about 1.0 and 1.23 times the scale
    s = sigma sqrt(d / n_obs) (0.062 here). d overcounts (the factorization has
    k^2 + 2k + 1 gauge directions), so c = 2 leaves room for finite-sample and
    optimizer error but not for a wrong surface: an error of sigma |e_0.1| =
    0.26 in the shift alone would be 4 s.

    Angle bound. Each column j of v is regressed on u over its ~(1 - 0.3) n =
    140 observed cells, and u's entries have unit variance, so each entry of
    v-hat errs by about sqrt(eta) sigma / sqrt(140) = 0.031. The sine of the
    largest principal angle is about the spectral norm of the error's part
    orthogonal to span(v), ~0.031 (sqrt(p) + sqrt(k)) = 0.48, over the least
    singular value of the centered v, ~sqrt(p) - sqrt(k) = 12.7: about 0.04.
    The bound 0.1 allows 2.5 times that, while a fit that missed one planted
    direction would read a sine near 1.
    """

    C_RMS = 2.0
    MAX_SINE = 0.1

    @pytest.mark.parametrize("data_seed", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_surface_and_subspace(self, tau, data_seed):
        spec = SimulationSpec(m=200, n=200, sigma=0.3, na_portion=0.3, true_rank=2,
                              seed=data_seed)
        sim = generate(spec)
        xn, info = normalize(sim.x)
        report = fit(xn, info.row_means, info.col_means,
                     FitConfig(tau=tau, k=spec.true_rank, seed=1))
        fitted = fitted_matrix(report.model) * info.std + info.mean
        error = fitted - (mean_matrix(sim) + spec.sigma * normal_expectile(tau))
        mask = sim.x.mask
        n_obs = int(mask.sum())
        scale = spec.sigma * math.sqrt((spec.m + spec.n) * (spec.true_rank + 1) / n_obs)
        for cells, where in ((mask, "observed"), (~mask, "unobserved")):
            rms = float(np.sqrt(np.mean(error[cells] ** 2)))
            assert rms <= self.C_RMS * scale, (
                f"{where} RMS {rms:.4g} = {rms / scale:.3g} x scale {scale:.4g} "
                f"({report.status}, {report.iterations} iterations)")

        true_basis = np.linalg.qr(sim.true_v - sim.true_v.mean(axis=0))[0]
        fit_basis = np.linalg.qr(report.model.v)[0]
        sine = np.linalg.norm(fit_basis - true_basis @ (true_basis.T @ fit_basis), 2)
        assert sine < self.MAX_SINE, f"sine of the largest principal angle {sine:.4g}"

