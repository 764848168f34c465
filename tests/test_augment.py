import numpy as np
import pytest

from ddkseg import augment
from ddkseg.audio import Waveform
from ddkseg.augment import augment_wave, mix_noise


def test_augment_mixes_at_non_integer_snr(monkeypatch):
    monkeypatch.setattr(augment, "SNR_CHOICES_DB", (7.5,))  # modes: clean, 7.5 dB noise, band-reject
    seed = next(s for s in range(100) if np.random.default_rng(s).integers(3) == 1)
    t = np.arange(16000) / 16000.0
    clean = Waveform(0.1 * np.sin(2 * np.pi * 220.0 * t), 16000)
    mixed = augment_wave(clean, np.random.default_rng(seed))
    noise = mixed.samples - clean.samples
    snr_db = 20.0 * np.log10(np.sqrt(np.mean(clean.samples ** 2)) / np.sqrt(np.mean(noise ** 2)))
    assert abs(snr_db - 7.5) < 1e-9


def test_mix_noise_rejects_empty_noise():
    signal = Waveform(0.1 * np.ones(100), 16000)
    with pytest.raises(ValueError, match="noise is empty"):
        mix_noise(signal, Waveform(np.zeros(0), 16000), 10.0)
