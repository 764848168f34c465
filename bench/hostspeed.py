"""A fixed numpy workload that times the host, not the program.

The benchmark's host is shared: for minutes at a time every program on it,
this workload and the ddkseg commands alike, runs up to 2.5 times slower
or faster, and shorter swings come and go within seconds (see README).
A run times this workload just before and just after every timed command
and expresses the command's time in reference seconds:

    reference seconds = wall seconds * REFERENCE_S / (mean of the two workload times)

It imports nothing from ddkseg, so no change to the program changes it. Its
parts mirror what the program spends its time on: a recurrence of small
matrix products in a Python loop (the BiLSTM), larger matrix products
(convolutions), elementwise passes over 2 MB (BatchNorm, LeakyReLU) and
plain interpreter work (post-processing and command overhead).
"""

from __future__ import annotations

import time

import numpy as np

# Chosen so that figures come out near the reference host's plain wall-clock
# figures when it runs fast (README).
REFERENCE_S = 0.02


def workload_s() -> float:
    """Wall time of one pass of the fixed workload. Its arrays live only for
    the call, so the benchmark's peak RSS stays the program's."""
    start = time.perf_counter()
    w = np.linspace(-0.05, 0.05, 128 * 512, dtype=np.float32).reshape(128, 512)
    x = np.full((8, 512), 0.01, np.float32)
    h = np.zeros((8, 128), np.float32)
    c = h.copy()
    for _ in range(300):
        g = x + h @ w
        i, f, o = (1.0 / (1.0 + np.exp(-g[:, k * 128:(k + 1) * 128])) for k in range(3))
        c = f * c + i * np.tanh(g[:, 384:])
        h = o * np.tanh(c)
    a = np.full((256, 1024), 0.5, np.float32)
    b = np.full((1024, 512), 0.25, np.float32)
    for _ in range(4):
        a @ b
    e = np.linspace(-1.0, 1.0, 1 << 19, dtype=np.float32)
    for _ in range(12):
        np.where(e > 0, e, 0.01 * e)
    n = 0
    for k in range(100_000):
        n += k & 7
    return time.perf_counter() - start
