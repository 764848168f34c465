"""Training-time waveform corruptions: SNR-controlled noise, band-reject
filtering, and a synthetic low-frequency noise source.

augment_wave draws one mode per example: clean, noise at one SNR of
SNR_CHOICES_DB, or band-reject with BAND_CENTER_HZ and BAND_WIDTH_HZ ranges.

All functions preserve signal length and leave label timelines untouched.
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


def mix_noise(signal: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """Add noise scaled so 20*log10(rms_signal / rms_noise) equals snr_db.

    Noise shorter than the signal is tiled; longer noise is cropped; empty
    noise raises ValueError. A silent signal is returned unchanged (with a
    warning) since no SNR can be defined for it.
    """
    if noise.sample_rate_hz != signal.sample_rate_hz:
        raise ValueError("signal and noise sample rates differ")
    if len(noise) == 0:
        raise ValueError("mix_noise: noise is empty")
    sig = signal.samples
    rms_signal = float(np.sqrt(np.mean(sig * sig))) if sig.size else 0.0
    if rms_signal == 0.0:
        warnings.warn("mix_noise: silent signal, returning it unchanged")
        return signal
    n = noise.samples
    if len(n) < len(sig):
        n = np.tile(n, int(np.ceil(len(sig) / len(n))))
    n = n[:len(sig)]
    rms_noise = float(np.sqrt(np.mean(n * n)))
    if rms_noise == 0.0:
        return Waveform(sig.copy(), signal.sample_rate_hz)
    scale = rms_signal / (rms_noise * 10.0 ** (snr_db / 20.0))
    mixed = np.clip(sig + scale * n, -1.0, MAX_AMPLITUDE)
    return Waveform(mixed, signal.sample_rate_hz)


def band_reject(wave: Waveform, low_hz: float, high_hz: float) -> Waveform:
    """Remove [low_hz, high_hz] with a 255-tap linear-phase FIR notch."""
    nyquist = wave.sample_rate_hz / 2.0
    if not 0.0 < low_hz < high_hz < nyquist:
        raise ValueError(f"invalid band ({low_hz}, {high_hz}) Hz at fs={wave.sample_rate_hz}")
    h = bandstop_fir(NOTCH_TAPS, low_hz, high_hz, wave.sample_rate_hz)
    filtered = np.clip(apply_fir(wave.samples, h), -1.0, MAX_AMPLITUDE)
    return Waveform(filtered, wave.sample_rate_hz)


def synth_noise(duration_s: float, seed: int, sample_rate_hz: int = 16000) -> Waveform:
    """Deterministic broadband-lowpass noise that approximates HVAC / engine
    rumble: white noise lowpassed at 500 Hz, at RMS 0.1."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate_hz))
    white = rng.standard_normal(n)
    h = lowpass_fir(NOTCH_TAPS, 500.0, sample_rate_hz)
    shaped = apply_fir(white, h)
    rms = float(np.sqrt(np.mean(shaped * shaped)))
    shaped *= 0.1 / rms
    return Waveform(np.clip(shaped, -1.0, MAX_AMPLITUDE), sample_rate_hz)


def augment_wave(wave: Waveform, rng: np.random.Generator) -> Waveform:
    """Draw one augmentation mode uniformly and apply it: clean, noise at
    one of SNR_CHOICES_DB (each a mode of its own), or band-reject."""
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
    noise = synth_noise(len(wave) / wave.sample_rate_hz + 1e-9,
                        seed=int(rng.integers(2 ** 63)), sample_rate_hz=wave.sample_rate_hz)
    return mix_noise(wave, noise, mode)
