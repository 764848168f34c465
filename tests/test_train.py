"""train_model is deterministic given a seed, and trains at 16 kHz whatever the corpus rate;
TrainConfig checks itself."""

import dataclasses
import re

import numpy as np
import pytest
from conftest import TINY_LSTM

from ddkseg import train
from ddkseg.audio import MODEL_RATE_HZ, Waveform, resample
from ddkseg.errors import ConfigError
from ddkseg.models import Segmenter
from ddkseg.synth import Trial, TrialSpec, generate_trial
from ddkseg.train import TrainConfig, train_model, write_train_log


def _trials(seeds):
    out = []
    for seed in seeds:
        wave, segments = generate_trial(TrialSpec(syllable_count=6, seed=seed))
        out.append(Trial(f"t{seed}", wave, segments))
    return out


def test_same_seed_gives_bit_identical_checkpoint_and_log(tmp_path):
    # Augmentation, start shifts, shuffling and dropout all draw from the seed.
    model_cfg = dataclasses.replace(TINY_LSTM, dropout_p=0.2)
    cfg = TrainConfig(batch_size=2, lr=1e-2, max_epochs=2, patience=2, seed=7)
    train, val = _trials([1, 2, 3]), _trials([4])
    runs = [train_model(train, val, model_cfg, cfg) for _ in range(2)]

    first, second = (run.model.checkpoint_arrays() for run in runs)
    assert first.keys() == second.keys()
    for key in first:
        np.testing.assert_array_equal(first[key], second[key], err_msg=key)
    untrained = Segmenter(model_cfg, seed=cfg.seed).checkpoint_arrays()
    assert any(not np.array_equal(first[key], untrained[key]) for key in first)

    for i, run in enumerate(runs):
        write_train_log(tmp_path / f"log{i}.csv", run.log)
    assert (tmp_path / "log0.csv").read_bytes() == (tmp_path / "log1.csv").read_bytes()
    assert runs[0].best_epoch == runs[1].best_epoch


def test_a_44k_trial_trains_on_the_windows_and_labels_of_its_16k_copy(monkeypatch):
    # Windows and labels count 16 samples per ms, so a 44.1 kHz trial is
    # resampled first; cut as it was, it gave 6 windows of 0.36 s here.
    wave, segments = generate_trial(TrialSpec(syllable_count=12, seed=5))  # 2.68 s
    wave16 = Waveform(wave.samples[:40000], MODEL_RATE_HZ)  # 2 windows whatever the start shift
    wave44 = resample(wave16, 44100)
    datasets = []

    def spy(trials, cfg, rng, split):
        x, y = epoch_dataset(trials, cfg, rng, split)
        datasets.append((x.shape, y))
        return x, y

    epoch_dataset = train._epoch_dataset
    monkeypatch.setattr(train, "_epoch_dataset", spy)
    cfg = TrainConfig(batch_size=4, max_epochs=1, patience=1, augment=False)
    for w in (wave16, wave44):
        train.train_model([Trial("t", w, segments)], [Trial("v", w, segments)], TINY_LSTM, cfg)
    (val16, train16, val44, train44) = datasets  # validation first, then the one epoch
    for (shape16, y16), (shape44, y44) in ((val16, val44), (train16, train44)):
        assert shape16 == shape44 == (2, 1, 16000)
        np.testing.assert_array_equal(y16, y44)


@pytest.mark.parametrize("field, value, message", [
    ("batch_size", "eight", "batch_size must be an integer, got 'eight'"),
    ("lr", "fast", "lr must be a positive number, got 'fast'"),
    ("max_epochs", 3.5, "max_epochs must be an integer, got 3.5"),
    ("patience", True, "patience must be an integer, got True"),
    ("augment", "yes", "augment must be true or false, got 'yes'"),
    ("seed", None, "seed must be an integer, got None"),
    ("lr", 0, "lr must be a positive number, got 0"),
    ("batch_size", 0, "batch_size must be >= 1"),
], ids=["batch_size-str", "lr-str", "max_epochs-float", "patience-bool", "augment-str", "seed-None", "lr-0",
        "batch_size-0"])
def test_an_invalid_train_config_is_config_error(field, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        TrainConfig(**{field: value})
