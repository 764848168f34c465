import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ddkseg import augment
from ddkseg.audio import Waveform
from ddkseg.augment import SNR_CHOICES_DB, augment_wave

# For each of the five modes (clean, the three SNRs, band-reject), a seed
# whose generator draws it.
MODE_SEEDS = [next(s for s in range(100) if np.random.default_rng(s).integers(len(SNR_CHOICES_DB) + 2) == mode)
              for mode in range(len(SNR_CHOICES_DB) + 2)]


def test_augment_mixes_at_non_integer_snr(monkeypatch):
    monkeypatch.setattr(augment, "SNR_CHOICES_DB", (7.5,))  # modes: clean, 7.5 dB noise, band-reject
    seed = next(s for s in range(100) if np.random.default_rng(s).integers(3) == 1)
    t = np.arange(16000) / 16000.0
    clean = Waveform(0.1 * np.sin(2 * np.pi * 220.0 * t), 16000)
    mixed = augment_wave(clean, np.random.default_rng(seed))
    noise = mixed.samples - clean.samples
    snr_db = 20.0 * np.log10(np.sqrt(np.mean(clean.samples ** 2)) / np.sqrt(np.mean(noise ** 2)))
    assert abs(snr_db - 7.5) < 1e-9


@settings(max_examples=150, deadline=None)
@given(length=st.integers(0, 600), silent=st.booleans(), mode=st.integers(0, len(MODE_SEEDS) - 1),
       data_seed=st.integers(0, 2 ** 32 - 1))
def test_augment_keeps_length_and_never_raises(length, silent, mode, data_seed):
    samples = np.zeros(length) if silent else np.random.default_rng(data_seed).uniform(-0.5, 0.5, length)
    wave = Waveform(samples, 16000)
    rng, reference = np.random.default_rng(MODE_SEEDS[mode]), np.random.default_rng(MODE_SEEDS[mode])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a silent signal in a noise mode warns
        out = augment_wave(wave, rng)
        augment_wave(Waveform(np.full(300, 0.1), 16000), reference)
    assert len(out) == length and out.sample_rate_hz == 16000
    if silent:
        np.testing.assert_array_equal(out.samples, samples)
    # The draws a mode makes do not depend on the signal.
    assert rng.integers(2 ** 63) == reference.integers(2 ** 63)
