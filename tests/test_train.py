"""train_model is deterministic given a seed."""

import dataclasses

import numpy as np
from conftest import TINY_LSTM

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
