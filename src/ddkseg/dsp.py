"""Small FIR toolbox: Kaiser-windowed sinc design and zero-delay filtering.

Everything here works on plain float64 numpy arrays; the audio and
augmentation modules build their resampler / notch / noise-shaping filters
from these primitives so the package has no DSP dependency beyond numpy.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Kaiser window shapes of the FIR designs (about 63 dB stop band) and of the
# resampler's prototype (about 87 dB), and the resampler's taps per phase.
FIR_BETA = 6.0
RESAMPLE_BETA = 8.6
TAPS_PER_PHASE = 64
# Outputs resample_kaiser computes from one zero-padded stretch of input.
RESAMPLE_BLOCK = 32768


def lowpass_fir(num_taps: int, cutoff_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Linear-phase lowpass prototype (window method, Kaiser window).

    num_taps should be odd so the filter has an integer group delay that
    apply_fir can remove exactly.
    """
    if num_taps < 3:
        raise ValueError(f"num_taps must be >= 3, got {num_taps}")
    if not 0.0 < cutoff_hz < sample_rate_hz / 2.0:
        raise ValueError(f"cutoff {cutoff_hz} Hz outside (0, Nyquist) at fs={sample_rate_hz}")
    center = (num_taps - 1) / 2.0
    m = np.arange(num_taps, dtype=np.float64) - center
    fc = cutoff_hz / sample_rate_hz  # cycles per sample
    h = 2.0 * fc * np.sinc(2.0 * fc * m)
    h *= np.kaiser(num_taps, FIR_BETA)
    # Normalize DC gain to exactly 1.
    h /= h.sum()
    return h


def bandstop_fir(num_taps: int, low_hz: float, high_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Linear-phase band-reject filter: delta minus a windowed-sinc bandpass."""
    if num_taps % 2 == 0:
        raise ValueError("bandstop filters need an odd tap count")
    if not 0.0 < low_hz < high_hz < sample_rate_hz / 2.0:
        raise ValueError(f"invalid band ({low_hz}, {high_hz}) Hz at fs={sample_rate_hz}")
    h_low = lowpass_fir(num_taps, low_hz, sample_rate_hz)
    h_high = lowpass_fir(num_taps, high_hz, sample_rate_hz)
    h = h_low - h_high  # minus the bandpass between low and high
    h[(num_taps - 1) // 2] += 1.0
    return h


def apply_fir(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Filter x with an odd-length linear-phase FIR, compensating group delay.

    Returns len(x) samples, whatever the filter's length: the slice of the
    full convolution that starts at the group delay (len(h) - 1) // 2, so
    y[n] lines up with x[n] and the edges see implicit zero padding. When
    len(x) >= len(h) that equals np.convolve(x, h, "same") bit for bit.
    """
    if len(h) % 2 == 0:
        raise ValueError("apply_fir expects an odd-length filter")
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return x.copy()
    delay = (len(h) - 1) // 2
    return np.convolve(x, h)[delay:delay + len(x)]


def resample_kaiser(x: np.ndarray, source_hz: int, target_hz: int) -> np.ndarray:
    """Polyphase rational resampler with a Kaiser-windowed sinc prototype.

    The prototype lowpass cuts off at the smaller of the two Nyquist
    frequencies; group delay is compensated so y[n] is aligned with input
    position n * source / target. Output length is round(len(x) * target / source).

    With up / down the reduced rate ratio, outputs n, n + up, n + 2 up, ...
    share one phase of the filter and read input rows that start down
    samples apart, so each phase is one matrix-vector product of a strided
    view of the zero-padded input (TAPS_PER_PHASE + 1 samples a row) with
    that phase's reversed taps. Nothing is gathered or copied per output.
    The outputs go in blocks of about RESAMPLE_BLOCK, whole filter periods
    of up outputs each, and each block pads a copy of only the input it
    reads, so the whole signal is never copied.
    """
    if source_hz <= 0 or target_hz <= 0:
        raise ValueError("sample rates must be positive")
    x = np.asarray(x, dtype=np.float64)
    if source_hz == target_hz:
        return x.copy()
    n_out = int(round(len(x) * target_hz / source_hz))
    if len(x) == 0 or n_out == 0:
        return np.zeros(0, dtype=np.float64)

    g = np.gcd(source_hz, target_hz)
    up = target_hz // g
    down = source_hz // g

    # Odd length makes the group delay an integer number of upsampled-grid
    # samples, so the output is exactly time aligned with the input.
    row = TAPS_PER_PHASE + 1
    n_taps = TAPS_PER_PHASE * up + 1
    center = (n_taps - 1) // 2
    # Cutoff at min(source, target)/2 expressed at the upsampled rate source*up.
    fc = 0.5 / max(up, down)
    m = np.arange(n_taps, dtype=np.float64) - center
    h = np.zeros(row * up)
    h[:n_taps] = 2.0 * fc * np.sinc(2.0 * fc * m) * np.kaiser(n_taps, RESAMPLE_BETA)
    h *= up  # compensate the zero insertion
    # taps[p, j] = h[p + (row - 1 - j) * up]: phase p's taps, reversed so
    # that they line up with input samples in increasing time.
    taps = h.reshape(row, up).T[:, ::-1]

    # y[n] = sum_t h[p + t*up] * x[q - t] where p, q locate the (delay
    # compensated) position n*down + center on the upsampled grid: the row
    # of x ending at q, that is xp[q + 1 : q + 1 + row] of the input padded
    # with row zeros at each end. A block starting at output `first` (a
    # multiple of up) has its q shifted by first // up * down.
    y = np.empty(n_out, dtype=np.float64)
    step = up * max(1, RESAMPLE_BLOCK // up)
    for first in range(0, n_out, step):
        block = y[first:first + step]
        start = first // up * down
        stop = start + ((len(block) - 1) * down + center) // up + 1 + row
        xp = np.zeros(stop - start)  # xp[start:stop] of the padded input
        lo, hi = max(start, row), min(stop, row + len(x))
        if lo < hi:
            xp[lo - start:hi - start] = x[lo - row:hi - row]
        rows = sliding_window_view(xp, row)
        for n in range(min(up, len(block))):
            q, p = divmod(n * down + center, up)
            out = block[n::up]
            out[...] = rows[q + 1::down][:len(out)] @ taps[p]
    return y
