"""Adam optimizer over named parameter dictionaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Decay rates of the first and second moment estimates, and the
# denominator's floor.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class NonFiniteGradientError(ValueError):
    """A gradient holds NaN or infinity, as one of a diverging run does."""


@dataclass
class AdamState:
    lr: float
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: dict[str, np.ndarray], lr: float) -> AdamState:
    state = AdamState(lr=lr)
    for key, value in params.items():
        state.m[key] = np.zeros_like(value, dtype=np.float64)
        state.v[key] = np.zeros_like(value, dtype=np.float64)
    return state


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter arrays."""
    missing = set(params) - set(grads)
    if missing:
        raise ValueError(f"gradients missing for parameters: {sorted(missing)}")
    for key, grad in grads.items():
        if key in params and not np.all(np.isfinite(grad)):
            bad = int(np.sum(~np.isfinite(grad)))
            raise NonFiniteGradientError(
                f"non-finite gradient for {key!r}: {bad}/{grad.size} entries at step {state.step_count + 1}")

    state.step_count += 1
    correct1 = 1.0 - BETA1 ** state.step_count
    correct2 = 1.0 - BETA2 ** state.step_count
    for key, value in params.items():
        grad = grads[key].astype(np.float64, copy=False)
        m = state.m[key]
        v = state.v[key]
        m += (1.0 - BETA1) * (grad - m)
        v += (1.0 - BETA2) * (grad * grad - v)
        update = (m / correct1) / (np.sqrt(v / correct2) + EPS)
        value -= (state.lr * update).astype(value.dtype)
    return state
