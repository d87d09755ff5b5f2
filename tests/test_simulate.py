from dataclasses import replace

import numpy as np
import pytest

from expectile_mf import SimulationSpec, generate, normalize
from oracles import mean_matrix, residual_noise_std


class TestSpecValidation:
    def test_defaults_are_benchmark_configuration(self):
        spec = SimulationSpec(m=200, n=200)
        assert spec.sigma == 0.3
        assert spec.na_portion == 0.3
        assert spec.true_rank == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0, "n": 5},
            {"m": 5, "n": 0},
            {"m": 5, "n": 5, "sigma": -1.0},
            {"m": 5, "n": 5, "na_portion": 1.0},
            {"m": 5, "n": 5, "true_rank": 0},
            {"m": 5, "n": 5, "sigma": float("nan")},
            {"m": 5, "n": 5, "na_portion": -0.1},
            {"m": 5, "n": 5, "sigma": float("inf")},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationSpec(**kwargs)


class TestGenerate:
    def test_noiseless_complete_data_equals_planted_matrix(self):
        spec = SimulationSpec(m=12, n=9, sigma=0.0, na_portion=0.0, true_rank=2, seed=5)
        sim = generate(spec)
        assert sim.x.observed_count() == 12 * 9
        np.testing.assert_array_equal(sim.x.values, mean_matrix(sim))

    def test_same_seed_bit_identical(self):
        spec = SimulationSpec(m=20, n=15, seed=123)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.x.values, b.x.values)
        assert np.array_equal(a.x.mask, b.x.mask)
        assert np.array_equal(a.true_u, b.true_u)

    def test_different_seeds_differ(self):
        a = generate(SimulationSpec(m=20, n=15, seed=1))
        b = generate(SimulationSpec(m=20, n=15, seed=2))
        assert not np.array_equal(a.x.values, b.x.values)

    def test_component_shapes(self):
        sim = generate(SimulationSpec(m=7, n=5, true_rank=3, seed=0))
        assert sim.true_r.shape == (7,)
        assert sim.true_c.shape == (5,)
        assert sim.true_u.shape == (7, 3)
        assert sim.true_v.shape == (5, 3)

    def test_observed_fraction_near_target(self):
        spec = SimulationSpec(m=200, n=200, seed=0)
        sim = generate(spec)
        frac = sim.x.observed_count() / (200 * 200)
        assert abs(frac - 0.7) < 0.01

    def test_component_stds_within_three_percent(self):
        # each planted component is drawn at unit scale; checked where it has >= 10^4 draws
        tall = generate(SimulationSpec(m=10_000, n=40, sigma=0.4, seed=4))
        assert abs(np.std(tall.true_r) - 1.0) < 0.03
        assert abs(np.std(tall.true_u) - 1.0) < 0.03
        wide = generate(SimulationSpec(m=40, n=10_000, sigma=0.4, seed=4))
        assert abs(np.std(wide.true_c) - 1.0) < 0.03
        assert abs(np.std(wide.true_v) - 1.0) < 0.03
        noise = tall.x.values - mean_matrix(tall)
        assert abs(np.std(noise[tall.x.mask]) / 0.4 - 1.0) < 0.03

    def test_missingness_independent_of_values(self):
        sim = generate(SimulationSpec(m=200, n=200, seed=9))
        all_mean = mean_matrix(sim).mean()
        obs_mean = (mean_matrix(sim)[sim.x.mask]).mean()
        pooled_sd = mean_matrix(sim).std() / np.sqrt(sim.x.observed_count())
        assert abs(obs_mean - all_mean) < 4.0 * pooled_sd

    def test_streams_are_stable_across_call_order(self):
        # each component draws from its own stream: changing how the noise or
        # the mask is used leaves every other component's draws unchanged
        spec = SimulationSpec(m=30, n=24, seed=42)
        base = generate(spec)
        noiseless = generate(replace(spec, sigma=0.0))
        for sim in (noiseless, generate(replace(spec, na_portion=0.6))):
            for name in ("true_r", "true_c", "true_u", "true_v"):
                assert np.array_equal(getattr(sim, name), getattr(base, name))
        assert np.array_equal(noiseless.x.mask, base.x.mask)


class TestResidualNoiseStd:
    def test_tracks_sigma_over_normalization_scale(self):
        spec = SimulationSpec(m=200, n=200, seed=2)
        sim = generate(spec)
        _, info = normalize(sim.x)
        sg = residual_noise_std(sim, info)
        assert abs(sg * info.std - 0.3) < 0.01

    def test_benchmark_scale_value_in_reported_band(self):
        spec = SimulationSpec(m=200, n=200, seed=0)
        sim = generate(spec)
        _, info = normalize(sim.x)
        assert abs(residual_noise_std(sim, info) - 0.143) <= 0.01
