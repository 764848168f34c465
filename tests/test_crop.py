"""Segmenter.forward(keep=...) against the full forward, Conv1d's explicit
padding, and predict_file's owned-span crop against a full forward per
window (test_predict.per_window_reference)."""

from pathlib import Path

import numpy as np
import pytest
from conftest import TINY_CNN, TINY_LSTM
from test_predict import per_window_reference

from ddkseg import nn
from ddkseg.audio import MODEL_RATE_HZ, SAMPLES_PER_MS, Waveform, cut_windows
from ddkseg.models import ModelConfig, Segmenter, load_checkpoint, predict_file
from ddkseg.postproc import N_CLASSES
from ddkseg.synth import TrialSpec, generate_trial

CHECKPOINTS = Path(__file__).resolve().parents[1] / "bench" / "checkpoints"

# A stride-1 top whose even kernels change the length: the first conv's
# reach (3) and the last one's (3) are each one less than twice their
# padding (4), so each grows the length by 1 and the stack ends 2 frames
# past the window; the dilated conv between them keeps it.
UNEVEN_CNN = ModelConfig(
    conv_channels=(3, 4, 4, 4, 4), conv_kernels=(8, 5, 4, 5, 2), conv_strides=(4, 4, 1, 1, 1),
    conv_dilations=(1, 1, 1, 2, 3), lstm_hidden=0, lstm_layers=0, fc_hidden=6, dropout_p=0.0)


@pytest.fixture(scope="module")
def cnn_model():
    return load_checkpoint(CHECKPOINTS / "cnn.npz")[0]


# The crop checks run in float64: in float32 a GEMM over a few frames may
# round differently from one over a whole window (by up to 3e-6 on the
# checkpoint's logits for spans under about 100 frames), which would hide
# nothing but noise; a wrong crop moves logits by far more than 1e-6.


def _spans(frames):
    return [(0, frames), (0, 7), (frames - 5, frames), (1, frames - 1), (37, 38),
            (0, 1), (frames - 1, frames), (frames // 3, frames // 3 + frames // 2)]


def _check_crop(model, x):
    full = model.forward(x)
    for lo, hi in _spans(full.shape[1]):
        kept = model.forward(x, keep=(lo, hi))
        assert kept.shape == (x.shape[0], hi - lo, N_CLASSES)
        np.testing.assert_allclose(kept, full[:, lo:hi], rtol=0, atol=1e-6)


# Fixed ids keep these cases' names stable. An LSTM model refuses keep=
# (test_keep_needs_a_model_without_lstm_layers).
@pytest.mark.parametrize("cfg", [TINY_CNN, UNEVEN_CNN], ids=["cfg0", "cfg2"])
@pytest.mark.parametrize("samples", [1600, 1613])
def test_cropped_forward_equals_full_forward(cfg, samples):
    model = Segmenter(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(samples)
    for layer in model.conv.layers:
        if isinstance(layer, nn.BatchNorm1d):
            layer.running_mean[:] = 0.1 * rng.standard_normal(layer.channels)
            layer.running_var[:] = rng.uniform(0.5, 2.0, layer.channels)
    _check_crop(model, 0.3 * rng.standard_normal((2, 1, samples)))


def test_cropped_forward_equals_full_forward_on_checkpoint(cnn_model):
    model = Segmenter(cnn_model.cfg, dtype=np.float64)
    model.restore(cnn_model.snapshot())
    wave, _ = generate_trial(TrialSpec(syllable_count=8, seed=2))
    _check_crop(model, wave.samples[None, None, :16000])


@pytest.mark.parametrize("keep", [(5, 5), (7, 3), (-1, 4), (0, 101), (100, 101)])
def test_bad_keep_span_raises(keep):
    model = Segmenter(TINY_CNN, seed=0)
    with pytest.raises(ValueError, match="keep span"):
        model.forward(np.zeros((1, 1, 1600)), keep=keep)


def test_keep_needs_the_inference_path():
    model = Segmenter(TINY_CNN, seed=0)
    with pytest.raises(ValueError, match="inference"):
        model.forward(np.zeros((1, 1, 1600)), train=True, keep=(0, 10))


def test_keep_needs_a_model_without_lstm_layers():
    # A recurrence reads every frame: there is nothing to crop.
    model = Segmenter(TINY_LSTM, seed=0)
    with pytest.raises(ValueError, match="without LSTM layers"):
        model.forward(np.zeros((1, 1, 1600)), keep=(0, 10))


@pytest.mark.parametrize("pad", [(0, 0), (3, 0), (0, 2), (1, 4)])
def test_conv_explicit_padding(rng, pad):
    conv = nn.Conv1d(2, 3, 3, stride=1, padding=2, dilation=2, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 2, 17))
    xp = np.pad(x, ((0, 0), (0, 0), pad))
    plain = nn.Conv1d(2, 3, 3, stride=1, padding=0, dilation=2, dtype=np.float64)
    plain.params = conv.params
    out = conv.forward(x, train=True, pad=pad)
    np.testing.assert_allclose(out, plain.forward(xp, train=True), rtol=0, atol=1e-12)
    dout = rng.standard_normal(out.shape)
    np.testing.assert_allclose(conv.backward(dout), plain.backward(dout)[:, :, pad[0]:pad[0] + 17],
                               rtol=0, atol=1e-12)


# Windows are 1000 ms every 800 ms, the last one ending at the last whole
# frame: 800k + 200 ms holds k windows on the 800 ms grid, 800k + 600 ms
# those and one more at 800k - 400 ms. All are full.
@pytest.mark.parametrize("full", [1, 2, 5, 13])
@pytest.mark.parametrize("tail", [False, True])
def test_cropped_predict_file_matches_full_windows(cnn_model, full, tail):
    trial, _ = generate_trial(TrialSpec(syllable_count=45, seed=4))
    duration_ms = 800 * full + (600 if tail else 200)
    wave = Waveform(trial.samples[:duration_ms * SAMPLES_PER_MS + 7], MODEL_RATE_HZ)
    windows = cut_windows(wave)
    assert all(len(w) == 1000 * SAMPLES_PER_MS for _, w in windows)
    assert [s for s, _ in windows] == list(range(0, 800 * full, 800)) + ([800 * full - 400] if tail else [])

    pred = predict_file(cnn_model, wave)
    labels, probs, _ = per_window_reference(cnn_model, wave)
    np.testing.assert_array_equal(pred.labels, labels)
    np.testing.assert_allclose(pred.probs, probs, rtol=0, atol=1e-5)
