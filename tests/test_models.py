"""Model configuration checks, the derived conv paddings and the checkpoint format."""

import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import TINY_CNN, TINY_LSTM, held, step_inputs
from hypothesis import given, settings
from hypothesis import strategies as st

from ddkseg import cli
from ddkseg.errors import ConfigError, DataError
from ddkseg.models import CHECKPOINT_VERSION, ModelConfig, Segmenter, load_checkpoint, save_checkpoint
from ddkseg.postproc import N_CLASSES

CHECKPOINTS = Path(__file__).resolve().parents[1] / "bench" / "checkpoints"


@pytest.mark.parametrize("name, cfg", [("lstm", ModelConfig.lstm_default()), ("cnn", ModelConfig.cnn_default())])
def test_committed_checkpoints_load(name, cfg):
    # Written before frame_rate_ms and allow_custom_shapes were removed, and
    # with n_classes (3) and leaky_slope (0.01) in the config.
    model, meta = load_checkpoint(CHECKPOINTS / f"{name}.npz")
    assert model.cfg == cfg
    assert meta["arch"] == name


def _randomized(cfg, seed):
    model = Segmenter(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for v in model.checkpoint_arrays().values():
        v[...] = rng.standard_normal(v.shape).astype(v.dtype)
    return model


@pytest.mark.parametrize("cfg", [TINY_LSTM, TINY_CNN])
def test_checkpoint_roundtrip_bit_exact(tmp_path, cfg):
    model = _randomized(cfg, seed=3)
    save_checkpoint(tmp_path / "m.npz", model, meta={"best_epoch": 4})
    loaded, meta = load_checkpoint(tmp_path / "m.npz")
    assert loaded.cfg == cfg
    assert meta == {"best_epoch": 4}
    want, got = model.checkpoint_arrays(), loaded.checkpoint_arrays()
    assert list(got) == list(want)
    assert any(k.startswith("state/") for k in want)
    for k in want:
        assert got[k].dtype == want[k].dtype
        np.testing.assert_array_equal(got[k], want[k])


def _rewrite(path, header_edit=None, array_edit=None):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays.pop("__header__")).decode())
    if header_edit:
        header_edit(header)
    if array_edit:
        array_edit(arrays)
    np.savez(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)


def _bump_version(h):
    h["format_version"] = CHECKPOINT_VERSION + 1


def _unknown_key(h):
    h["config"]["frame_rate_hz"] = 1000


def _four_classes(h):
    h["config"]["n_classes"] = 4


def _steep_slope(h):
    h["config"]["leaky_slope"] = 0.2


def _string_channels(h):
    h["config"]["conv_channels"] = "abc"


def _config_not_object(h):
    h["config"] = "lstm"


def _one_nan(arrays):
    arrays["param/head.0.fw_w_ih"].flat[7] = np.nan


def _past_float32(arrays):
    arrays["state/conv.1.running_var"] = arrays["state/conv.1.running_var"].astype(np.float64)
    arrays["state/conv.1.running_var"][0] = 1e300


def _wrong_shape(arrays):
    key = next(k for k in arrays if k.startswith("param/"))
    arrays[key] = np.zeros(arrays[key].shape + (1,), dtype=arrays[key].dtype)


@pytest.mark.parametrize("header_edit, array_edit, message", [
    (_bump_version, None, "unsupported checkpoint version 2"),
    (_unknown_key, None, r"unknown model config keys: \['frame_rate_hz'\]"),
    (_four_classes, None, "n_classes must be 3, one per label: other, vot, vowel"),
    (_steep_slope, None, "leaky_slope must be 0.01, the slope of every LeakyReLU"),
    (_string_channels, None, "conv_channels must be a list of integers"),
    (_config_not_object, None, "checkpoint header holds no config object"),
    (None, _wrong_shape, "shape mismatch for param/"),
    (None, lambda a: a.pop("state/conv.1.running_mean"), "checkpoint keys do not match architecture"),
    (None, _one_nan, r"non-finite values in param/head\.0\.fw_w_ih$"),
    (None, _past_float32, r"non-finite values in state/conv\.1\.running_var$"),
])
def test_bad_checkpoint_is_data_error(tmp_path, header_edit, array_edit, message):
    path = tmp_path / "m.npz"
    save_checkpoint(path, Segmenter(TINY_LSTM, seed=0))
    _rewrite(path, header_edit, array_edit)
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


def test_snapshot_restore():
    model = _randomized(TINY_LSTM, seed=1)
    snap = model.snapshot()
    for v in model.checkpoint_arrays().values():
        v += 1
    model.restore(snap)
    for k, v in model.checkpoint_arrays().items():
        np.testing.assert_array_equal(v, snap[k])


@pytest.mark.parametrize("cfg", [TINY_LSTM, TINY_CNN], ids=["lstm", "cnn"])
def test_eval_forward_after_a_train_forward_leaves_the_model_as_built(cfg):
    # The model keeps backward state only from a train forward until its
    # backward, in its layers' caches: an eval forward drops them all and
    # leaves the model itself with the attributes a fresh one has.
    model, fresh = Segmenter(cfg, seed=1), Segmenter(cfg, seed=1)
    x, _ = step_inputs(2, seed=3)
    model.forward(x, train=True, rng=np.random.default_rng(0))
    model.forward(x)
    assert not held(model)
    assert vars(model).keys() == vars(fresh).keys()
    layers = ("conv", "head")  # compared by held() above
    assert ({k: v for k, v in vars(model).items() if k not in layers}
            == {k: v for k, v in vars(fresh).items() if k not in layers})


@pytest.mark.parametrize("changes, message", [
    ({"architecture": "cnn"}, "cnn architecture has no LSTM layers"),
    ({"architecture": "lstm", "lstm_layers": 0}, "lstm architecture needs lstm_layers >= 1"),
    ({"lstm_hidden": 0}, "lstm_hidden >= 1"),
    ({"architecture": "gru"}, "architecture must be 'lstm', which lstm_layers sets"),
    ({"conv_strides": (4, 2, 2, 1, 2)}, "conv stride product must be 16"),
    ({"conv_kernels": (16, 5, 5, 3)}, "conv_kernels must have 5 entries"),
    ({"conv_dilations": (1, 1, 1, 1, 0)}, "conv_dilations must be a list of integers >= 1"),
])
def test_validate_rejects(changes, message):
    # Configs are checked when made: from_dict raises before returning one.
    with pytest.raises(ConfigError, match=message):
        ModelConfig.from_dict({**ModelConfig.lstm_default().to_dict(), **changes})


def test_validate_accepts_other_layer_counts():
    cfg = ModelConfig(conv_channels=(8, 8, 8), conv_kernels=(8, 5, 5), conv_strides=(4, 2, 2),
                      conv_dilations=(1, 1, 1), lstm_layers=1)
    assert (cfg.architecture, cfg.conv_paddings) == ("lstm", (2, 2, 2))
    assert (TINY_CNN.architecture, TINY_CNN.conv_paddings) == ("cnn", (2, 3))


def test_a_model_without_lstm_layers_has_one_config(tmp_path):
    # lstm_hidden means nothing without LSTM layers: it reads 0 whatever was
    # asked, so configs of one model compare equal.
    assert ModelConfig(lstm_layers=0) == ModelConfig(lstm_layers=0, lstm_hidden=0)
    assert ModelConfig(lstm_layers=0).lstm_hidden == 0
    # lstm_layers 0 over the --arch lstm defaults still loads, as a cnn.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"lstm_layers": 0}}))
    args = cli.build_parser().parse_args(["train", "--manifest", "m.csv", "--out-dir", "out",
                                          "--config", str(config)])
    model_cfg, _ = cli._load_train_configs(args)
    assert (model_cfg.architecture, model_cfg.lstm_hidden) == ("cnn", 0)
    assert model_cfg == replace(ModelConfig.lstm_default(), lstm_layers=0, lstm_hidden=0)
    cfg = load_checkpoint(CHECKPOINTS / "cnn.npz")[0].cfg
    assert cfg == ModelConfig.cnn_default() == replace(ModelConfig.cnn_default(), lstm_hidden=128)


_STRIDES = [s for n in (2, 3) for s in itertools.product((1, 2, 4, 8, 16), repeat=n) if math.prod(s) == 16]


@st.composite
def _tiny_configs(draw):
    # At most 4 channels: a wide kernel on a wide layer builds a large im2col buffer.
    strides = draw(st.sampled_from(_STRIDES))

    def per_conv(lo, hi):
        return draw(st.tuples(*[st.integers(lo, hi)] * len(strides)))

    lstm_layers = draw(st.integers(0, 1))
    return ModelConfig(conv_channels=per_conv(1, 4), conv_kernels=per_conv(1, 9),
                       conv_strides=strides, conv_dilations=per_conv(1, 5),
                       lstm_hidden=3 * lstm_layers, lstm_layers=lstm_layers, fc_hidden=3, dropout_p=0.0)


@settings(max_examples=60, deadline=None)
@given(cfg=_tiny_configs(), samples=st.integers(16, 2000))
def test_derived_paddings_give_one_frame_per_ms(cfg, samples):
    model = Segmenter(cfg, seed=0)
    rng = np.random.default_rng(samples)
    x = 0.1 * rng.standard_normal((1, 1, samples))
    assert model.conv.forward(x.astype(np.float32)).shape[2] >= samples // 16
    assert model.forward(x).shape == (1, samples // 16, N_CLASSES)
    loss, _ = model.loss_and_grads((0.1 * rng.standard_normal((2, 1, 1600))).astype(np.float32),
                                   rng.integers(0, N_CLASSES, (2, 100)), rng=rng)
    assert np.isfinite(loss)
