"""Slow reference of ddkseg.dsp.resample_kaiser: the same Kaiser-windowed
sinc prototype, applied by building, clipping and gathering an index matrix
per filter phase. Kept only as an oracle for the strided implementation."""

from __future__ import annotations

import numpy as np

TAPS_PER_PHASE = 64
BETA = 8.6


def resample_kaiser_reference(x: np.ndarray, source_hz: int, target_hz: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if source_hz == target_hz:
        return x.copy()
    n_out = int(round(len(x) * target_hz / source_hz))
    if len(x) == 0 or n_out == 0:
        return np.zeros(0, dtype=np.float64)

    g = np.gcd(source_hz, target_hz)
    up = target_hz // g
    down = source_hz // g

    n_taps = TAPS_PER_PHASE * up + 1
    center = (n_taps - 1) // 2
    fc = 0.5 / max(up, down)
    m = np.arange(n_taps, dtype=np.float64) - center
    h = 2.0 * fc * np.sinc(2.0 * fc * m) * np.kaiser(n_taps, BETA)
    h *= up

    # y[n] = sum_t h[p + t*up] * x[q - t] where p, q locate the (delay
    # compensated) position n*down + center on the upsampled grid.
    pos = np.arange(n_out, dtype=np.int64) * down + center
    phase = pos % up
    base = pos // up

    pad = TAPS_PER_PHASE + 1
    xp = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    y = np.empty(n_out, dtype=np.float64)
    for p in np.unique(phase):
        sel = np.flatnonzero(phase == p)
        taps = h[p::up]
        idx = base[sel][:, None] - np.arange(len(taps))[None, :] + pad
        y[sel] = np.take(xp, np.clip(idx, 0, len(xp) - 1)) @ taps
    return y
