"""Small FIR toolbox: Kaiser-windowed sinc design, zero-delay filtering and
a polyphase rational resampler.

Everything here works on plain float64 numpy arrays, so the package has no
DSP dependency beyond numpy. The augmentation module builds its notch and
noise-shaping filters from lowpass_fir / bandstop_fir and apply_fir; the
audio module brings every file to the model rate with resample_kaiser,
which runs its filter as BLAS GEMMs over groups of filter phases.
"""

from __future__ import annotations

import numpy as np

# Kaiser window shapes of the FIR designs (about 63 dB stop band) and of the
# resampler's prototype (about 87 dB), and the resampler's taps per phase.
FIR_BETA = 6.0
RESAMPLE_BETA = 8.6
TAPS_PER_PHASE = 64
# The most outputs, and input samples, of one resample_kaiser GEMM call
# (one GEMM row may hold more); the input samples that one GEMM group's
# outputs advance through (a group's band is at most about 48 / 113
# zeros); and the most outputs of one group, which bounds the bands when up
# is large against down.
RESAMPLE_CHUNK = 16384
GROUP_SPAN = 48
GROUP_WIDTH = 256


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


def _resample_plan(up: int, down: int) -> tuple[int, int, int, int, list]:
    """The GEMM layout of resample_kaiser for the reduced rate ratio up / down.

    Returns (per_row, stride, reach, rows, groups). A GEMM row holds
    per_row outputs, a whole number of filter periods, and the next row's
    input starts `stride` samples later. The row is the shortest in which
    no group's window is longer than the stride, so every GEMM operand is
    a plain strided view that BLAS takes as it is. Each group is (cols,
    offset, band): the outputs `cols` of a row read the window of
    band.shape[0] input samples that starts `offset` samples into the row,
    and band holds their phases' taps, zero elsewhere. The groups of one
    unit of whole filter periods are built once and repeat down the row,
    sharing their bands, so the bands hold at most about
    (GROUP_SPAN + TAPS_PER_PHASE) * max(up, GROUP_WIDTH) floats whatever
    the rate pair. One GEMM takes `rows` rows, the most whose outputs and
    input samples both stay within RESAMPLE_CHUNK (at least one row), and
    a row's groups read no input past `reach` samples from its start.
    """
    row = TAPS_PER_PHASE + 1
    n_taps = TAPS_PER_PHASE * up + 1
    # Odd length makes the group delay an integer number of upsampled-grid
    # samples, so the output is exactly time aligned with the input.
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
    # compensated) position n*down + center on the upsampled grid: the
    # window of x ending at q, input samples q + 1 .. q + row of the input
    # padded with row zeros in front. Output n + up reads the window down
    # samples later with the same taps, so a unit of whole periods repeats.
    width = max(1, min(GROUP_WIDTH, GROUP_SPAN * up // down))
    periods = max(1, width // up)
    q, p = np.divmod(np.arange(periods * up) * down + center, up)
    n_groups = -(-len(q) // width)
    bounds = [k * len(q) // n_groups for k in range(n_groups + 1)]
    unit = []
    for lo, hi in zip(bounds, bounds[1:]):
        rel = q[lo:hi] - q[lo]
        band = np.zeros((rel[-1] + row, hi - lo))
        band[rel + np.arange(row)[:, None], np.arange(hi - lo)] = taps[p[lo:hi]].T
        unit.append((lo, hi, int(q[lo]) + 1, band))
    units = -(-max(band.shape[0] for *_, band in unit) // (periods * down))
    per_row, stride = units * periods * up, units * periods * down
    groups = [(slice(k * periods * up + lo, k * periods * up + hi), k * periods * down + offset, band)
              for k in range(units) for lo, hi, offset, band in unit]
    reach = groups[-1][1] + stride
    return per_row, stride, reach, max(1, RESAMPLE_CHUNK // max(per_row, stride)), groups


def resample_kaiser(x: np.ndarray, source_hz: int, target_hz: int) -> np.ndarray:
    """Polyphase rational resampler with a Kaiser-windowed sinc prototype.

    The prototype lowpass cuts off at the smaller of the two Nyquist
    frequencies; group delay is compensated so y[n] is aligned with input
    position n * source / target. Output length is round(len(x) * target / source).

    With up / down the reduced rate ratio, output n + up reads the input
    window of output n shifted by down samples, with the same phase of the
    filter. So the outputs are laid out as rows of whole filter periods
    (_resample_plan), and each group of consecutive outputs of a row is one
    BLAS GEMM: the rows' input windows, a strided view of the zero-padded
    input, times a band matrix of the group's taps. The GEMMs write
    straight into the output, one chunk of `rows` rows at a time, and each
    chunk pads only the input it reads into one reused buffer, so the
    whole signal is never copied. Every GEMM has a shape fixed by the rate
    pair: the last chunk also computes rows past the signal's last output,
    into a spare buffer. So an output's bits do not depend on how long the
    signal runs past the input it reads (BLAS picks other kernels for
    other shapes), and a signal resampled block by block, with the input
    each block reads, gives the bits of the whole.
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
    per_row, stride, reach, rows, groups = _resample_plan(up, down)
    chunk = rows * per_row
    pad = TAPS_PER_PHASE + 1  # zeros in front of x
    xp = np.empty((rows - 1) * stride + reach)
    y = np.empty(n_out, dtype=np.float64)
    for first in range(0, n_out, chunk):
        # xp holds x padded, from sample `start` on: a multiple of up
        # outputs in, the windows are first // up * down samples later.
        start = first // up * down
        lo = max(start, pad)
        hi = max(lo, min(start + len(xp), pad + len(x)))
        xp[:lo - start] = 0.0
        xp[lo - start:hi - start] = x[lo - pad:hi - pad]
        xp[hi - start:] = 0.0
        out = y[first:first + chunk]
        dst = out if len(out) == chunk else np.empty(chunk)
        dst_rows = dst.reshape(rows, per_row)
        for cols, offset, band in groups:
            windows = xp[offset:offset + rows * stride].reshape(rows, stride)[:, :band.shape[0]]
            np.matmul(windows, band, out=dst_rows[:, cols])
        if dst is not out:
            out[...] = dst[:len(out)]
    return y
