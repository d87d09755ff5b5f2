"""Seed derivation shared by the seeded studies and the benchmark."""

from __future__ import annotations

import numpy as np


def derive_seeds(seed: int, count: int) -> list[int]:
    """count independent child seeds from one parent, deterministically."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]
