"""The strided polyphase resampler against its gather-based reference, the
FIR filter's output length, and the band-reject filter's stop and pass bands."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from resample_reference import resample_kaiser_reference

from ddkseg.audio import Waveform
from ddkseg import dsp
from ddkseg.augment import NOTCH_TAPS, band_reject
from ddkseg.dsp import apply_fir, bandstop_fir, lowpass_fir, resample_kaiser


@pytest.mark.parametrize("source, target", [(8000, 16000), (11025, 16000), (22050, 16000),
                                            (44100, 16000), (48000, 16000), (16000, 44100)])
@pytest.mark.parametrize("n", [0, 1, 2, 37, 1000, "long"])
def test_resample_matches_gather_reference(source, target, n):
    if n == "long":
        n = 3 * source + 17  # an odd length of a little over three seconds
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    y = resample_kaiser(x, source, target)
    assert len(y) == round(n * target / source)
    np.testing.assert_allclose(y, resample_kaiser_reference(x, source, target), rtol=0, atol=1e-12)


@pytest.mark.parametrize("source, target", [(44100, 16000), (8000, 16000), (16000, 44100)])
@pytest.mark.parametrize("block", [1, 161, 1000])
def test_resample_blocks_do_not_change_the_output(monkeypatch, source, target, block):
    # Blocks shorter than one filter period, a period and a bit, and several periods.
    x = np.random.default_rng(block).uniform(-1.0, 1.0, 5 * source // 3 + 11)
    monkeypatch.setattr(dsp, "RESAMPLE_BLOCK", len(x) * 10)
    whole = resample_kaiser(x, source, target)
    monkeypatch.setattr(dsp, "RESAMPLE_BLOCK", block)
    np.testing.assert_array_equal(resample_kaiser(x, source, target), whole)


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
