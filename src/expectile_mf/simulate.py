"""Seeded synthetic matrices with planted low-rank structure and MCAR holes.

Generation draws row effects, column effects, rank-k factors, and additive
Gaussian noise, then hides a Bernoulli fraction of cells completely at
random. Randomness comes from numpy's PCG64 with one child stream per
component (row effects, column effects, row factors, column factors, noise,
mask), split from the seed via SeedSequence.spawn, so draws are
reproducible bit-for-bit across platforms and insensitive to call order.
Normal variates use numpy's Generator ziggurat sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masked import MaskedMatrix

@dataclass(frozen=True)
class SimulationSpec:
    """Dimensions, noise level, missingness, rank, seed.

    Every planted component is drawn at unit scale. Defaults are the
    benchmark configuration used throughout the study harnesses: noise 0.3,
    30 percent missing, true rank 2.
    """

    m: int
    n: int
    sigma: float = 0.3
    na_portion: float = 0.3
    true_rank: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 0.0 <= self.na_portion < 1.0:
            raise ValueError("na_portion must be in [0, 1)")
        if self.true_rank < 1:
            raise ValueError("true_rank must be >= 1")


@dataclass(frozen=True)
class SimulatedData:
    x: MaskedMatrix
    true_r: np.ndarray
    true_c: np.ndarray
    true_u: np.ndarray
    true_v: np.ndarray


def generate(spec: SimulationSpec) -> SimulatedData:
    """Draw a dataset; identical specs give bit-identical output."""
    row_effects, col_effects, row_factors, col_factors, noise, mask_draws = (
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(spec.seed).spawn(6))
    true_r = row_effects.standard_normal(spec.m)
    true_c = col_effects.standard_normal(spec.n)
    true_u = row_factors.standard_normal((spec.m, spec.true_rank))
    true_v = col_factors.standard_normal((spec.n, spec.true_rank))
    mu = true_r[:, None] + true_c[None, :] + true_u @ true_v.T
    x_full = mu + spec.sigma * noise.standard_normal((spec.m, spec.n))
    missing = mask_draws.random((spec.m, spec.n)) < spec.na_portion
    mask = ~missing
    return SimulatedData(
        x=MaskedMatrix(x_full, mask),
        true_r=true_r,
        true_c=true_c,
        true_u=true_u,
        true_v=true_v,
    )
