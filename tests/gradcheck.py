"""Central finite-difference checking of analytic gradients.

Intended to run on float64 instantiations with dropout disabled. For tiny
models every coordinate is compared; for full-size configurations pass
coords_per_param to spot-check a random subset of each tensor (exhaustive
differencing over ~1e6 parameters would take hours).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

REL_EPS = 1e-8


def grad_check(loss_and_grads: Callable[[], tuple[float, dict[str, np.ndarray]]],
               params: dict[str, np.ndarray],
               h: float = 1e-5,
               coords_per_param: int | None = None,
               selection: str = "random",
               rng: np.random.Generator | None = None) -> float:
    """Max relative error |analytic - numeric| / max(|a|, |n|, 1e-8).

    loss_and_grads evaluates the model at the current parameter values and
    returns the loss plus gradient arrays aligned with `params`. Parameters
    are perturbed in place, through their own indices, so a non-contiguous
    parameter (a transposed view, say) is perturbed where the model reads
    it, and restored exactly.

    When subsampling, selection="largest" checks the coordinates with the
    largest analytic gradients. Central differences at h carry an absolute
    noise floor around |loss| * eps / h, so coordinates whose true gradient
    sits below ~1e-7 cannot be certified by this method at all; "largest"
    keeps the subsample within the verifiable regime.
    """
    _, grads = loss_and_grads()
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for key, value in params.items():
        grad = grads[key]
        if coords_per_param is None or coords_per_param >= value.size:
            coords = range(value.size)
        elif selection == "largest":
            coords = np.argsort(np.abs(grad), axis=None)[-coords_per_param:]
        else:
            coords = rng.choice(value.size, size=coords_per_param, replace=False)
        for flat_idx in coords:
            idx = np.unravel_index(flat_idx, value.shape)
            saved = value[idx]
            value[idx] = saved + h
            loss_plus, _ = loss_and_grads()
            value[idx] = saved - h
            loss_minus, _ = loss_and_grads()
            value[idx] = saved
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            analytic = float(grad[idx])
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_EPS)
            worst = max(worst, err)
    return worst
