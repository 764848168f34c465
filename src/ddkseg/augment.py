"""Training-time waveform corruptions: SNR-controlled noise, band-reject
filtering, and a synthetic low-frequency noise source.

augment_wave draws one mode per example: clean, noise at one SNR of
SNR_CHOICES_DB, or band-reject with BAND_CENTER_HZ and BAND_WIDTH_HZ ranges.

Every step preserves signal length (apply_fir returns len(x) samples and
the noise is drawn at the signal's own length), and label timelines are
left untouched. A silent signal (empty or all zeros) has no SNR, so a noise
mode returns it unchanged, with a warning, after the same random draws as
for any other signal and before any noise is made.
"""

from __future__ import annotations

import warnings

import numpy as np

from .audio import MAX_AMPLITUDE, Waveform
from .dsp import apply_fir, bandstop_fir, lowpass_fir

NOTCH_TAPS = 255
SNR_CHOICES_DB = (5.0, 10.0, 15.0)
BAND_CENTER_HZ = (500.0, 6000.0)
BAND_WIDTH_HZ = (200.0, 1000.0)


def band_reject(wave: Waveform, low_hz: float, high_hz: float) -> Waveform:
    """Remove [low_hz, high_hz] with a 255-tap linear-phase FIR notch."""
    h = bandstop_fir(NOTCH_TAPS, low_hz, high_hz, wave.sample_rate_hz)
    filtered = np.clip(apply_fir(wave.samples, h), -1.0, MAX_AMPLITUDE)
    return Waveform(filtered, wave.sample_rate_hz)


def synth_noise(n_samples: int, seed: int, sample_rate_hz: int = 16000) -> Waveform:
    """n_samples of deterministic broadband-lowpass noise that approximates
    HVAC / engine rumble: white noise lowpassed at 500 Hz, at RMS 0.1."""
    if n_samples < 1:
        raise ValueError("synth_noise needs at least one sample")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n_samples)
    h = lowpass_fir(NOTCH_TAPS, 500.0, sample_rate_hz)
    shaped = apply_fir(white, h)
    rms = float(np.sqrt(np.mean(shaped * shaped)))
    shaped *= 0.1 / rms
    return Waveform(np.clip(shaped, -1.0, MAX_AMPLITUDE), sample_rate_hz)


def augment_wave(wave: Waveform, rng: np.random.Generator) -> Waveform:
    """Draw one augmentation mode uniformly and apply it: clean, noise at
    one of SNR_CHOICES_DB (each a mode of its own), or band-reject.

    A noise mode scales the noise so 20*log10(rms_signal / rms_noise)
    equals the mode's SNR."""
    modes = ("clean", *SNR_CHOICES_DB, "band-reject")
    mode = modes[int(rng.integers(len(modes)))]
    if mode == "clean":
        return wave
    if mode == "band-reject":
        center = rng.uniform(*BAND_CENTER_HZ)
        width = rng.uniform(*BAND_WIDTH_HZ)
        nyquist = wave.sample_rate_hz / 2.0
        low = max(50.0, center - width / 2.0)
        high = min(nyquist - 50.0, center + width / 2.0)
        return band_reject(wave, low, high)
    seed = int(rng.integers(2 ** 63))
    sig = wave.samples
    rms_signal = float(np.sqrt(np.mean(sig * sig))) if sig.size else 0.0
    if rms_signal == 0.0:
        warnings.warn("augment_wave: silent signal, returning it unchanged")
        return wave
    noise = synth_noise(len(sig), seed, wave.sample_rate_hz).samples
    rms_noise = float(np.sqrt(np.mean(noise * noise)))
    scale = rms_signal / (rms_noise * 10.0 ** (mode / 20.0))
    return Waveform(np.clip(sig + scale * noise, -1.0, MAX_AMPLITUDE), wave.sample_rate_hz)
