"""Parameter initializers shared by the layer implementations."""

from __future__ import annotations

import numpy as np


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def uniform_fan(rng: np.random.Generator, shape: tuple[int, ...], fan: int, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)
