"""Invariants of predict_file: stacked full windows against the per-window
reference, full windows only for a file of a window or more, output length
at every input rate, determinism, no backward caches left behind, and no
state kept by any eval forward."""

from pathlib import Path

import numpy as np
import pytest
from conftest import TINY_CNN, TINY_LSTM

from ddkseg import models
from ddkseg.audio import (MODEL_RATE_HZ, SAMPLES_PER_MS, WINDOW_MS, Waveform, cut_windows, resample,
                          stitch_predictions)
from ddkseg.models import Segmenter, load_checkpoint, predict_file, predict_window
from ddkseg.postproc import N_CLASSES
from ddkseg.synth import TrialSpec, generate_trial

CHECKPOINTS = Path(__file__).resolve().parents[1] / "bench" / "checkpoints"


def per_window_reference(model, wave):
    """Every window through predict_window on its own, then stitched."""
    wave16 = resample(wave, MODEL_RATE_HZ)
    covered_ms = len(wave16.samples) // SAMPLES_PER_MS
    windows = cut_windows(wave16)
    if not windows:
        return np.zeros(0, dtype=np.int8), np.zeros((0, N_CLASSES), dtype=np.float32), False
    preds = [(start, predict_window(model, w)) for start, w in windows]
    probs = stitch_predictions([(start, p.probs) for start, p in preds], covered_ms)
    if wave16.duration_ms > covered_ms:
        probs = np.concatenate([probs, np.repeat(probs[-1:], wave16.duration_ms - covered_ms, axis=0)])
    return np.argmax(probs, axis=1).astype(np.int8), probs, any(p.padded for _, p in preds)


@pytest.fixture(scope="module")
def lstm_model():
    return load_checkpoint(CHECKPOINTS / "lstm.npz")[0]


@pytest.fixture(scope="module")
def long_trial():
    wave, _ = generate_trial(TrialSpec(syllable_count=30, seed=4))
    assert wave.duration_ms >= 7800
    return wave.samples


# Windows are 1000 ms every 800 ms, the last one ending at the last frame:
# 800k + 200 ms holds k windows on the 800 ms grid, 800k + 600 ms those and
# one more at 800k - 400 ms; all are full. 600 ms alone is one short window.
@pytest.mark.parametrize("full", [0, 1, 4, 5, 9])
@pytest.mark.parametrize("tail", [False, True])
def test_stacked_windows_match_per_window_reference(lstm_model, long_trial, full, tail):
    duration_ms = 800 * full + (600 if tail else 200) if full or tail else 0
    wave = Waveform(long_trial[:duration_ms * SAMPLES_PER_MS], MODEL_RATE_HZ)
    windows = cut_windows(wave)
    assert [len(w) for _, w in windows] == [1000 * SAMPLES_PER_MS if full else len(wave)] * (full + tail)
    last = [800 * full - 400 if full else 0] if tail else []
    assert [s for s, _ in windows] == list(range(0, 800 * full, 800)) + last

    pred = predict_file(lstm_model, wave)
    labels, probs, padded = per_window_reference(lstm_model, wave)
    assert len(pred) == duration_ms
    np.testing.assert_array_equal(pred.labels, labels)
    np.testing.assert_allclose(pred.probs, probs, rtol=0, atol=1e-5)
    assert pred.padded == padded


@pytest.mark.parametrize("cfg", [TINY_LSTM, TINY_CNN])
@pytest.mark.parametrize("seconds", [1.0, 1.001, 1.8, 7.3])
def test_files_of_a_window_or_more_run_full_windows_only(monkeypatch, long_trial, cfg, seconds):
    def refuse(*args, **kwargs):
        raise AssertionError("predict_file called predict_window")

    def forward(self, x, *args, **kwargs):
        lengths.append(x.shape[2])
        return original_forward(self, x, *args, **kwargs)

    lengths, original_forward = [], Segmenter.forward
    monkeypatch.setattr(models, "predict_window", refuse)
    monkeypatch.setattr(Segmenter, "forward", forward)
    wave = Waveform(long_trial[:round(seconds * MODEL_RATE_HZ)], MODEL_RATE_HZ)
    pred = predict_file(Segmenter(cfg, seed=1), wave)
    assert len(pred) == wave.duration_ms
    assert not pred.padded
    assert lengths and set(lengths) == {WINDOW_MS * SAMPLES_PER_MS}


@pytest.mark.parametrize("cfg", [TINY_LSTM, TINY_CNN])
@pytest.mark.parametrize("samples", [0, 5, 12, 16, 20, 100])
def test_short_inputs(cfg, samples):
    # Below 16 samples there is no whole frame (5 samples round to 0 ms,
    # 12 to 1 ms). TINY_LSTM's receptive field is 24 samples and TINY_CNN's
    # 40, so 16 and 20 samples are zero-padded.
    model = Segmenter(cfg, seed=1)
    wave = Waveform(0.1 * np.sin(np.arange(samples)), MODEL_RATE_HZ)
    pred = predict_file(model, wave)
    assert len(pred) == len(pred.probs) == wave.duration_ms
    assert pred.padded == (wave.duration_ms > 0 and samples < cfg.receptive_field_samples())
    np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0, atol=1e-6)


@pytest.mark.parametrize("rate", [8000, 22050, 44100])
@pytest.mark.parametrize("duration_s", [0.0004, 0.7, 2.6131])
def test_output_length_at_other_rates(rate, duration_s):
    model = Segmenter(TINY_LSTM, seed=1)
    n = int(round(duration_s * rate))
    wave = Waveform(0.1 * np.sin(0.03 * np.arange(n)), rate)
    pred = predict_file(model, wave)
    assert len(pred) == resample(wave, MODEL_RATE_HZ).duration_ms
    assert abs(len(pred) - wave.duration_ms) <= 1


def test_two_calls_are_bit_identical(lstm_model, long_trial):
    wave = Waveform(long_trial[:3400 * SAMPLES_PER_MS], MODEL_RATE_HZ)
    a, b = predict_file(lstm_model, wave), predict_file(lstm_model, wave)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.probs, b.probs)


@pytest.mark.parametrize("cfg", [TINY_LSTM, TINY_CNN])
def test_predict_file_leaves_no_backward_cache(cfg):
    model = Segmenter(cfg, seed=2)
    rng = np.random.default_rng(0)
    x = 0.1 * rng.standard_normal((2, 1, 1600))
    model.forward(x, train=True, rng=rng)
    layers = model.conv.layers + model.head.layers
    assert any(getattr(layer, "_cache", None) is not None for layer in layers)

    predict_file(model, Waveform(0.1 * rng.standard_normal(45_000).clip(-1, 0.9), MODEL_RATE_HZ))
    held = [(type(layer).__name__, k) for layer in layers
            for k, v in vars(layer).items() if k.startswith("_") and v is not None]
    assert not held, f"caches left after predict_file: {held}"


def test_backward_after_predict_file_raises():
    model = Segmenter(TINY_LSTM, seed=2)
    predict_file(model, Waveform(np.zeros(1600), MODEL_RATE_HZ))
    with pytest.raises(ValueError, match=r"train=True"):
        model.backward(np.zeros((1, 100, N_CLASSES), dtype=np.float32))


@pytest.mark.parametrize("cfg", [TINY_LSTM, TINY_CNN])
def test_eval_forwards_keep_no_state(cfg):
    # Threads share one model in predict_file, so an eval forward may set
    # no attribute of the model or of any layer, nor change a stored array.
    model = Segmenter(cfg, seed=2)
    rng = np.random.default_rng(0)
    objects = [model, model.conv, model.head] + model.conv.layers + model.head.layers
    before = [dict(vars(obj)) for obj in objects]
    arrays = model.snapshot()

    x = 0.1 * rng.standard_normal((2, 1, 1600))
    model.forward(x)
    if not cfg.lstm_layers:
        model.forward(x, keep=(10, 60))
    predict_file(model, Waveform(0.1 * rng.standard_normal(45_000).clip(-1, 0.9), MODEL_RATE_HZ))
    for obj, old in zip(objects, before):
        new = vars(obj)
        assert new.keys() == old.keys(), type(obj).__name__
        changed = [k for k, v in old.items() if new[k] is not v]
        assert not changed, f"{type(obj).__name__} set {changed}"
    for name, array in model.snapshot().items():
        np.testing.assert_array_equal(array, arrays[name], err_msg=name)
