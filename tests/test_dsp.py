"""The GEMM polyphase resampler against its gather-based reference, its
bits across block splits and its traced peaks, the FIR filter's output
length, and the band-reject filter's stop and pass bands."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from resample_reference import resample_kaiser_reference

from ddkseg.audio import Waveform
from ddkseg import dsp
from ddkseg.augment import NOTCH_TAPS, band_reject
from ddkseg.dsp import apply_fir, bandstop_fir, lowpass_fir, resample_kaiser


RATE_PAIRS = [(8000, 16000), (11025, 16000), (22050, 16000), (32000, 16000), (44100, 16000), (48000, 16000),
              (96000, 16000), (16000, 44100)]


def chunk_edge_length(source, target, chunks, extra):
    """An input length whose output is `chunks` whole GEMM chunks of
    resample_kaiser plus `extra` filter periods (negative: fewer)."""
    g = np.gcd(source, target)
    _, stride, _, rows, _ = dsp._resample_plan(target // g, source // g)
    return chunks * rows * stride + extra * source // g


@pytest.mark.parametrize("source, target", RATE_PAIRS)
@pytest.mark.parametrize("n", [0, 1, 2, 37, 1000, "long", "chunk-1", "chunk", "chunk+1"])
def test_resample_matches_gather_reference(source, target, n):
    if n == "long":
        n = 3 * source + 17  # an odd length of a little over three seconds
    elif isinstance(n, str):  # one GEMM chunk of outputs, and a filter period less or more
        n = chunk_edge_length(source, target, 1, {"chunk-1": -1, "chunk": 0, "chunk+1": 1}[n])
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    y = resample_kaiser(x, source, target)
    assert len(y) == round(n * target / source)
    np.testing.assert_allclose(y, resample_kaiser_reference(x, source, target), rtol=0, atol=1e-12)


@pytest.mark.parametrize("source, target", RATE_PAIRS)
@pytest.mark.parametrize("block", [1, 161, 1000])
def test_resample_blocks_do_not_change_the_output(source, target, block):
    # A signal, and the same signal with a block of `block` more samples:
    # the outputs that read none of the block keep their bits, so a signal
    # resampled block by block gives the bits of the whole. The signals are
    # of an odd length, and of two GEMM chunks of outputs and a filter
    # period less, none or more, so the block starts a new chunk or not.
    for n in [5 * source // 3 + 11] + [chunk_edge_length(source, target, 2, k) for k in (-1, 0, 1)]:
        x = np.random.default_rng(block).uniform(-1.0, 1.0, n + block)
        head = (n - dsp.TAPS_PER_PHASE) * target // source  # outputs a filter length before sample n
        np.testing.assert_array_equal(resample_kaiser(x[:n], source, target)[:head],
                                      resample_kaiser(x, source, target)[:head])


def traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resample_traced_peak():
    # 3.6 MB is 25 % over the 2.89 MB that the per-phase matrix-vector
    # resampler this layout replaced peaked at on the same call. The call
    # also builds the filter and its GEMM bands.
    x = np.random.default_rng(0).uniform(-1.0, 1.0, 10 * 44100)
    peak = traced_peak(resample_kaiser, x, 44100, 16000)
    assert peak <= 3.6e6, f"traced peak {peak / 1e6:.2f} MB"


def test_resample_from_a_very_low_rate_stays_small():
    # A 5 Hz header makes up = 3200 against down = 1. The per-phase
    # resampler peaked at 19.6 MB on this call, almost all of it the design
    # of its 204,801-tap filter; 24.5 MB (25 % more) leaves the GEMM bands
    # no room to grow with up / down.
    x = np.random.default_rng(5).uniform(-1.0, 1.0, 50)
    peak = traced_peak(resample_kaiser, x, 5, 16000)
    assert peak <= 24.5e6, f"traced peak {peak / 1e6:.2f} MB"
    np.testing.assert_allclose(resample_kaiser(x, 5, 16000), resample_kaiser_reference(x, 5, 16000),
                               rtol=0, atol=1e-12)


FILTERS = {
    "lowpass": lowpass_fir(NOTCH_TAPS, 500.0, 16000),
    "bandstop": bandstop_fir(NOTCH_TAPS, 700.0, 1500.0, 16000),
    "short": lowpass_fir(3, 2000.0, 16000),
}


@settings(max_examples=200, deadline=None)
@given(length=st.integers(0, 600), name=st.sampled_from(sorted(FILTERS)), seed=st.integers(0, 2 ** 32 - 1))
def test_apply_fir_keeps_length_and_matches_same_mode(length, name, seed):
    h = FILTERS[name]
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, length)
    y = apply_fir(x, h)
    assert y.shape == (length,)
    if length >= len(h):
        np.testing.assert_array_equal(y, np.convolve(x, h, "same"))


def _gain_db(freq_hz, low_hz, high_hz, rate=16000):
    t = np.arange(2 * rate) / rate
    x = 0.5 * np.sin(2 * np.pi * freq_hz * t)
    y = band_reject(Waveform(x, rate), low_hz, high_hz).samples
    inner = slice(NOTCH_TAPS, -NOTCH_TAPS)  # away from the zero-padded edges
    return 20 * np.log10(np.sqrt(np.mean(y[inner] ** 2)) / np.sqrt(np.mean(x[inner] ** 2)))


@pytest.mark.parametrize("low, high", [(200.0, 1000.0), (500.0, 2000.0), (1000.0, 3000.0)])
def test_band_reject_removes_its_band_and_passes_the_rest(low, high):
    for freq in (low + 150.0, (low + high) / 2, high - 150.0):
        assert _gain_db(freq, low, high) < -60.0, freq
    for freq in (low / 4, high + 400.0, 6000.0):
        assert abs(_gain_db(freq, low, high)) < 0.01, freq
