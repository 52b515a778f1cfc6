"""DET002 clean fixture: every draw descends from an explicit seed."""

import numpy as np

from repro.rng import default_rng


def taskset_rng(seed: int, point: int, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(point, index))
    )


def item_rng(seed: int, point: int, index: int):
    return default_rng(seed, spawn_key=(point, index))


def direct_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def draw(rng: np.random.Generator, n: int):
    return rng.normal(size=n)  # instance method on a derived Generator
