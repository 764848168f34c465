"""Exit-code contract of the CLI: bad user input exits 1 (usage/config) or
2 (data), never 3 (internal error)."""

import dataclasses
import json
import re

import numpy as np
import pytest
from conftest import TINY_LSTM
from hypothesis import given, settings
from hypothesis import strategies as st
from test_models import _four_classes, _rewrite

from ddkseg import cli
from ddkseg.audio import Waveform, read_wav, write_wav
from ddkseg.errors import DataError
from ddkseg.models import ModelConfig, Segmenter, load_checkpoint, save_checkpoint
from ddkseg.postproc import write_segments_csv
from ddkseg.synth import TrialSpec, generate_trial
from ddkseg.train import TrainConfig


def test_synth_non_numeric_split_is_usage_error(tmp_path, capsys):
    assert cli.main(["synth", "--out-dir", str(tmp_path), "--split", "a,b,c"]) == cli.EXIT_USAGE
    assert "--split" in capsys.readouterr().err


@pytest.mark.parametrize("split", ["2,-0.5,-0.5", "nan,0.5,0.5", "0.5,inf,-inf"])
def test_synth_negative_or_non_finite_split_is_usage_error(tmp_path, capsys, split):
    out = tmp_path / "corpus"
    assert cli.main(["synth", "--out-dir", str(out), "--trials", "10", "--split", split]) == cli.EXIT_USAGE
    assert "split ratios must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("low, high", [("0", "3"), ("-2", "-1"), ("5", "4")])
def test_synth_syllable_range_out_of_order_is_usage_error(tmp_path, capsys, low, high):
    out = tmp_path / "corpus"
    assert cli.main(["synth", "--out-dir", str(out), "--trials", "2",
                     "--min-syllables", low, "--max-syllables", high]) == cli.EXIT_USAGE
    assert "syllable range must have 1 <= min <= max" in capsys.readouterr().err
    assert not out.exists()


def test_synth_split_not_summing_to_one_is_usage_error(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert cli.main(["synth", "--out-dir", str(out), "--trials", "2", "--split", "0.5,0.5,0.5"]) == cli.EXIT_USAGE
    assert "split ratios must sum to 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_synth_trial_count_below_one_is_usage_error(tmp_path, capsys, trials):
    out = tmp_path / "corpus"
    assert cli.main(["synth", "--out-dir", str(out), "--trials", trials]) == cli.EXIT_USAGE
    assert f"trial count must be >= 1, got {trials}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row", ["x.csv,abc,2.0", "x.csv,1.0"])
def test_rate_bad_windows_row_is_data_error(tmp_path, capsys, row):
    seg = tmp_path / "x.csv"
    seg.write_text("onset_ms,offset_ms,label\n10,20,vot\n20,80,vowel\n")
    windows = tmp_path / "windows.csv"
    windows.write_text(f"path,start_s,end_s\n{row}\n")
    code = cli.main(["rate", str(seg), "--windows", str(windows), "--out", str(tmp_path / "rates.csv")])
    assert code == cli.EXIT_DATA
    assert "windows.csv:2: expected path,start_s,end_s" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("x.csv,nan,2", "bounds must be finite"),
    ("x.csv,0,inf", "bounds must be finite"),
    ("x.csv,3,2", "end must exceed start"),
    ("x.csv,2,2", "end must exceed start"),
])
def test_rate_windows_row_that_is_no_window_is_data_error(tmp_path, capsys, row, message):
    seg = tmp_path / "x.csv"
    seg.write_text("onset_ms,offset_ms,label\n10,20,vot\n20,80,vowel\n")
    windows = tmp_path / "windows.csv"
    windows.write_text(f"path,start_s,end_s\n{row}\n")
    out = tmp_path / "rates.csv"
    code = cli.main(["rate", str(seg), "--windows", str(windows), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert f"windows.csv:2: window {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("window, message", [
    ("nan:3", "bounds must be finite"),
    ("0:inf", "bounds must be finite"),
    ("-inf:1", "bounds must be finite"),
    ("5:2", "end must exceed start"),
])
def test_rate_window_that_is_no_window_is_usage_error(tmp_path, capsys, window, message):
    seg = tmp_path / "x.csv"
    seg.write_text("onset_ms,offset_ms,label\n10,20,vot\n20,80,vowel\n")
    out = tmp_path / "rates.csv"
    assert cli.main(["rate", str(seg), f"--window={window}", "--out", str(out)]) == cli.EXIT_USAGE
    assert f"--window {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_with_fewer_epochs_than_the_default_patience(tmp_path):
    # No patience given: the default never stops a run of fewer epochs.
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out-dir", str(corpus), "--trials", "3", "--split", "0.5,0.5,0",
                     "--min-syllables", "3", "--max-syllables", "3"]) == cli.EXIT_OK
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": TINY_LSTM.to_dict()}))
    out = tmp_path / "out"
    assert TrainConfig.patience > 2
    assert cli.main(["train", "--manifest", str(corpus / "manifest.csv"), "--out-dir", str(out),
                     "--config", str(config), "--epochs", "2", "--batch-size", "4", "--no-augment"]) == cli.EXIT_OK
    assert len((out / "train_log.csv").read_text().splitlines()) == 3


def test_train_with_patience_above_epochs_records_its_settings(tmp_path):
    # A patience at or above the epoch count never stops early, and the
    # checkpoint's meta records every training setting.
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out-dir", str(corpus), "--trials", "3", "--split", "0.5,0.5,0",
                     "--min-syllables", "3", "--max-syllables", "3"]) == cli.EXIT_OK
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": TINY_LSTM.to_dict()}))
    out = tmp_path / "out"
    assert cli.main(["train", "--manifest", str(corpus / "manifest.csv"), "--out-dir", str(out),
                     "--config", str(config), "--patience", "9", "--epochs", "2", "--batch-size", "4",
                     "--lr", "0.002", "--seed", "3"]) == cli.EXIT_OK
    assert len((out / "train_log.csv").read_text().splitlines()) == 3
    _, meta = load_checkpoint(out / "checkpoint.npz")
    assert meta["train"] == dataclasses.asdict(TrainConfig(batch_size=4, lr=0.002, max_epochs=2, patience=9,
                                                           seed=3, augment=True))
    assert {"best_epoch", "best_val_acc", "seed", "arch"} <= set(meta)
    assert (meta["seed"], meta["arch"]) == (3, "lstm")


def test_train_that_diverges_is_usage_error(tmp_path, capsys):
    # The first step's update leaves weights near 1e30, so the second
    # step's gradients overflow.
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out-dir", str(corpus), "--trials", "4", "--split", "0.5,0.5,0"]) == cli.EXIT_OK
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": TINY_LSTM.to_dict()}))
    out = tmp_path / "out"
    code = cli.main(["train", "--manifest", str(corpus / "manifest.csv"), "--out-dir", str(out),
                     "--config", str(config), "--lr", "1e30", "--epochs", "1", "--batch-size", "1", "--no-augment"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "training diverged in epoch 1 (non-finite gradient for " in err
    assert "lr 1e+30 is too large" in err
    assert not (out / "checkpoint.npz").exists()


def test_train_whose_loss_diverges_is_usage_error(tmp_path, capsys):
    # Every gradient stays finite, but epoch 2's validation loss is NaN.
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out-dir", str(corpus), "--trials", "5"]) == cli.EXIT_OK
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": TINY_LSTM.to_dict()}))
    out = tmp_path / "out"
    code = cli.main(["train", "--manifest", str(corpus / "manifest.csv"), "--out-dir", str(out),
                     "--config", str(config), "--lr", "1e10", "--epochs", "2", "--batch-size", "4"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert re.search(r"training diverged in epoch 2 \(train_loss \S+, val_loss nan\): lr 1e\+10 is too large", err)
    assert not (out / "checkpoint.npz").exists()
    assert not (out / "train_log.csv").exists()


@pytest.mark.parametrize("train, flags, message", [
    ({}, ["--batch-size", "0"], "batch_size must be >= 1"),
    ({"lr": 0.001}, [], "Set training with --epochs, --patience, --batch-size, --lr and --no-augment"),
    ({"batch_size": "eight"}, [], "invalid config"),
    ({}, ["--batch-size", "-1"], "batch_size must be >= 1"),
    ({"max_epochs": 3}, ["--epochs", "3"], "invalid config keys ['train']"),
    ({"seed": 3}, [], "set the seed with --seed"),
    ({}, ["--lr", "-0.5"], "lr must be a positive number, got -0.5"),
    ({}, ["--lr", "nan"], "lr must be a positive number, got nan"),
    ({}, ["--lr", "0"], "lr must be a positive number, got 0"),
    ({}, ["--lr", "inf"], "lr must be a positive number, got inf"),
    ({"augment": False}, ["--no-augment"], "invalid config keys ['train']"),
    ({}, ["--epochs", "-1"], "max_epochs must be >= 1"),
    ({}, ["--seed", "-1"], "seed must be >= 0"),
    ({}, ["--epochs", "0", "--patience", "0"], "max_epochs must be >= 1"),
    ({}, ["--epochs", "-3", "--patience", "-5"], "max_epochs must be >= 1"),
    ({}, ["--patience", "-1"], "patience must be >= 1"),
    ({}, ["--patience", "0"], "patience must be >= 1"),
])
def test_train_bad_config_is_usage_error(tmp_path, capsys, train, flags, message):
    # Training is set by flags only: a "train" section in --config exits 1,
    # naming the flags, even where it agrees with them.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": train} if train else {}))
    # The configuration is checked before the manifest is opened.
    code = cli.main(["train", "--manifest", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "out"),
                     "--config", str(config), *flags])
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "[]", '{"train": 5}', '{"model": []}', '{"model": 5}',
                                  '{"model": null}', '{"optimizer": {}}'])
def test_train_config_of_wrong_json_shape_is_usage_error(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    code = cli.main(["train", "--manifest", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "out"),
                     "--config", str(config)])
    assert code == cli.EXIT_USAGE
    assert re.search(r"expected a JSON object|invalid config keys|\"model\" must be a JSON object",
                     capsys.readouterr().err)


@pytest.mark.parametrize("model, message", [
    ({"conv_channels": "abcde"}, "conv_channels must be a list of integers >= 1"),
    ({"conv_kernels": 5}, "conv_kernels must be a list of integers >= 1"),
    ({"conv_paddings": [6, 2, 2, 1, -1]}, r"conv_paddings must be \(6, 2, 2, 1, 1\), which each conv's"),
    ({"lstm_hidden": "128"}, "lstm_hidden must be an integer >= 0"),
    ({"fc_hidden": 0}, "fc_hidden must be an integer >= 1"),
    ({"dropout_p": 1.5}, r"dropout_p must be a number in \[0, 1\)"),
    ({"leaky_slope": None}, "leaky_slope must be 0.01"),
    ({"n_classes": 2}, "n_classes must be 3"),
    ({"leaky_slope": 0.2}, "leaky_slope must be 0.01"),
    ({"conv_paddings": [0, 0, 0, 0, 0]}, r"conv_paddings must be \(6, 2, 2, 1, 1\), which each conv's"),
])
def test_train_bad_model_config_is_usage_error(tmp_path, capsys, model, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": model}))
    code = cli.main(["train", "--manifest", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "out"),
                     "--config", str(config)])
    assert code == cli.EXIT_USAGE
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("arch, stored, code", [
    ("lstm", "cnn", cli.EXIT_USAGE),
    ("cnn", "lstm", cli.EXIT_USAGE),
    ("cnn", "cnn", cli.EXIT_DATA),
])
def test_train_config_architecture_must_match_lstm_layers(tmp_path, capsys, arch, stored, code):
    # The architecture follows lstm_layers, which --arch sets; a stored one
    # is checked against it before the (missing) manifest is read.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"architecture": stored}}))
    assert cli.main(["train", "--manifest", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "out"),
                     "--arch", arch, "--config", str(config)]) == code
    err = capsys.readouterr().err
    assert (f"architecture must be {arch!r}, which lstm_layers sets" in err) == (code == cli.EXIT_USAGE)


def test_train_config_with_a_wide_dilation_loads_with_derived_paddings(tmp_path):
    # Its last conv reaches 40 frames to each side: a padding of 40 keeps
    # one frame per ms, where a configured padding of 1 lost 78 frames.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"conv_dilations": [1, 1, 1, 1, 40]}}))
    args = cli.build_parser().parse_args(["train", "--manifest", "m.csv", "--out-dir", "out",
                                          "--config", str(config)])
    model_cfg, _ = cli._load_train_configs(args)
    assert model_cfg.conv_paddings == (6, 2, 2, 1, 40)
    assert Segmenter(model_cfg).forward(np.zeros((1, 1, 16000))).shape == (1, 1000, 3)


def test_rate_on_a_directory_is_data_error(tmp_path, capsys):
    code = cli.main(["rate", str(tmp_path), "--out", str(tmp_path / "r.csv")])
    assert code == cli.EXIT_DATA
    assert "Is a directory" in capsys.readouterr().err


def test_manifest_row_with_empty_wav_path_is_data_error(tmp_path, capsys):
    labels = tmp_path / "t.csv"
    labels.write_text("onset_ms,offset_ms,label\n0,40,vot\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"trial_id,wav_path,labels_path,split\nt,,{labels.name},train\nt,,{labels.name},val\n")
    code = cli.main(["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert "Is a directory" in capsys.readouterr().err


def test_train_on_validation_trials_shorter_than_a_window_names_the_split(tmp_path, capsys):
    # The validation windows are cut first, so this error named the
    # training split, whose trial is long enough.
    rows = []
    for split, syllables in (("train", 6), ("val", 1)):
        wave, segments = generate_trial(TrialSpec(syllable_count=syllables, seed=1))
        write_wav(tmp_path / f"{split}.wav", wave)
        write_segments_csv(tmp_path / f"{split}.csv", segments)
        rows.append(f"{split}_0,{split}.wav,{split}.csv,{split}\n")
    assert wave.duration_ms < 1000
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("trial_id,wav_path,labels_path,split\n" + "".join(rows))
    code = cli.main(["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"), "--epochs", "1"])
    assert code == cli.EXIT_DATA
    assert "no usable validation windows (are all validation trials shorter than one window?)" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("other", [None, 100], ids=["other_full", "other_100_samples"])
def test_train_with_an_empty_training_wav(tmp_path, capsys, seed, other):
    # The empty trial goes through augmentation unchanged in every mode and
    # gives no windows; seeds 0 and 3 draw a noise mode for it. With the
    # other training trial too short for a window, no training window is left.
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out-dir", str(corpus), "--trials", "4", "--split", "0.5,0.5,0",
                     "--min-syllables", "3", "--max-syllables", "3", "--seed", "1"]) == cli.EXIT_OK
    rows = [line.split(",") for line in (corpus / "manifest.csv").read_text().splitlines()[1:]]
    train_wavs = [corpus / row[1] for row in rows if row[3] == "train"]
    write_wav(train_wavs[0], Waveform(np.zeros(0), 16000))
    if other is not None:
        write_wav(train_wavs[1], Waveform(np.full(other, 0.1), 16000))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": TINY_LSTM.to_dict()}))
    code = cli.main(["train", "--manifest", str(corpus / "manifest.csv"), "--out-dir", str(tmp_path / "out"),
                     "--config", str(config), "--epochs", "1", "--batch-size", "2", "--seed", str(seed)])
    if other is None:
        assert code == cli.EXIT_OK
    else:
        assert code == cli.EXIT_DATA
        assert "no usable training windows" in capsys.readouterr().err


@pytest.fixture
def tiny_checkpoint(tmp_path):
    path = tmp_path / "tiny.npz"
    save_checkpoint(path, Segmenter(TINY_LSTM, seed=0))
    return path


def test_segment_skips_unreadable_input_and_exits_2(tmp_path, capsys, tiny_checkpoint):
    rng = np.random.default_rng(0)
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    for name in ("a_good", "c_good"):
        write_wav(wavs / f"{name}.wav", Waveform(0.1 * rng.standard_normal(8000).clip(-1, 0.9), 16000))
    (wavs / "b_bad.wav").write_bytes(b"not a riff file at all")
    out = tmp_path / "out"

    code = cli.main(["segment", str(wavs / "c_good.wav"), str(wavs / "b_bad.wav"), str(wavs / "a_good.wav"),
                     "--checkpoint", str(tiny_checkpoint), "--out-dir", str(out)])

    assert code == cli.EXIT_DATA
    assert sorted(p.name for p in out.iterdir()) == ["a_good.csv", "c_good.csv"]
    err = capsys.readouterr().err
    assert "b_bad.wav: not a RIFF/WAVE file" in err
    assert "1 of 3 inputs could not be read" in err


def test_segment_with_four_class_checkpoint_exits_2(tmp_path, capsys, tiny_checkpoint):
    _rewrite(tiny_checkpoint, header_edit=_four_classes)
    wav = tmp_path / "a.wav"
    write_wav(wav, Waveform(np.zeros(4000), 16000))
    code = cli.main(["segment", str(wav), "--checkpoint", str(tiny_checkpoint), "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_DATA
    assert "n_classes must be 3" in capsys.readouterr().err


def test_segment_with_non_finite_checkpoint_exits_2(tmp_path, capsys, tiny_checkpoint):
    # A NaN weight would make every frame "other": a header-only CSV.
    _rewrite(tiny_checkpoint, array_edit=lambda a: a["param/head.6.weight"].fill(np.nan))
    wav = tmp_path / "a.wav"
    write_wav(wav, Waveform(np.zeros(4000), 16000))
    out = tmp_path / "out"
    code = cli.main(["segment", str(wav), "--checkpoint", str(tiny_checkpoint), "--out-dir", str(out)])
    assert code == cli.EXIT_DATA
    assert "non-finite values in param/head.6.weight" in capsys.readouterr().err
    assert not out.exists()


def test_segment_all_readable_exits_0(tmp_path, tiny_checkpoint):
    wav = tmp_path / "a.wav"
    write_wav(wav, Waveform(np.zeros(4000), 16000))
    code = cli.main(["segment", str(wav), "--checkpoint", str(tiny_checkpoint), "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert (tmp_path / "a.csv").is_file()


def test_segment_names_each_input_once(tmp_path, capsys, monkeypatch, tiny_checkpoint):
    monkeypatch.chdir(tmp_path)
    wav = tmp_path / "a.wav"
    write_wav(wav, Waveform(np.zeros(4000), 16000))
    out = tmp_path / "out"
    options = ["--checkpoint", str(tiny_checkpoint), "--out-dir", str(out)]
    inputs = [str(wav), "a.wav", "./a.wav", f"{tmp_path}/./a.wav", str(wav)]  # one file, spelled four ways
    assert cli.main(["segment", *inputs, *options]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == [str(out / "a.csv")]

    assert cli.main(["segment", *inputs, "gone.wav", str(tmp_path / "gone.wav"), *options]) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [str(out / "a.csv")]
    assert captured.err.count("input not found") == 1
    assert "1 of 2 inputs could not be read" in captured.err


def test_segment_zero_rate_input_exits_2(tmp_path, capsys, tiny_checkpoint):
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    for name in ("a", "b_0hz", "c"):
        write_wav(wavs / f"{name}.wav", Waveform(np.zeros(4000), 16000))
    data = bytearray((wavs / "b_0hz.wav").read_bytes())
    data[24:28] = (0).to_bytes(4, "little")  # fmt sample rate
    (wavs / "b_0hz.wav").write_bytes(bytes(data))
    out = tmp_path / "out"

    code = cli.main(["segment", *(str(wavs / f"{n}.wav") for n in ("a", "b_0hz", "c")),
                     "--checkpoint", str(tiny_checkpoint), "--out-dir", str(out)])

    assert code == cli.EXIT_DATA
    assert sorted(p.name for p in out.iterdir()) == ["a.csv", "c.csv"]
    assert "b_0hz.wav: sample rate is 0 Hz" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["segment", "synth", "rate", "eval"])
def test_output_path_under_a_regular_file_exits_2(tmp_path, capsys, tiny_checkpoint, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    wav, seg = tmp_path / "a.wav", tmp_path / "a.csv"
    write_wav(wav, Waveform(np.zeros(4000), 16000))
    seg.write_text("onset_ms,offset_ms,label\n10,20,vot\n20,80,vowel\n")
    out = str(blocker / "out")
    argv = {"segment": ["segment", str(wav), "--checkpoint", str(tiny_checkpoint), "--out-dir", out],
            "synth": ["synth", "--out-dir", out, "--trials", "2"],
            "rate": ["rate", str(seg), "--out", out],
            "eval": ["eval", "--pred", str(seg), "--target", str(seg), "--out", out]}[command]
    assert cli.main(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "blocker" in err
    assert "internal error" not in err


def test_segment_inputs_with_one_output_name_are_usage_error(tmp_path, capsys, monkeypatch, tiny_checkpoint):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        write_wav(tmp_path / d / "x.wav", Waveform(np.zeros(4000), 16000))

    def read_wav(path):
        raise AssertionError(f"read {path} before checking the output names")

    monkeypatch.setattr(cli, "read_wav", read_wav)
    out = tmp_path / "out"
    a, b = tmp_path / "a" / "x.wav", tmp_path / "b" / "x.wav"
    code = cli.main(["segment", str(b), str(a), "--checkpoint", str(tiny_checkpoint), "--out-dir", str(out)])
    assert code == cli.EXIT_USAGE
    assert f"{a} and {b} would both write x.csv" in capsys.readouterr().err
    assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(blob=st.one_of(st.binary(max_size=300),
                      st.binary(max_size=300).map(lambda b: b"RIFF" + b[:4] + b"WAVE" + b[4:])))
def test_segment_on_arbitrary_bytes_is_data_error_never_internal(tmp_path_factory, blob):
    work = tmp_path_factory.getbasetemp()
    checkpoint = work / "fuzz_tiny.npz"
    if not checkpoint.exists():
        save_checkpoint(checkpoint, Segmenter(TINY_LSTM, seed=0))
    wav = work / "fuzz.wav"
    wav.write_bytes(blob)
    try:
        read_wav(wav)
        expected = cli.EXIT_OK
    except DataError:
        expected = cli.EXIT_DATA
    code = cli.main(["segment", str(wav), "--checkpoint", str(checkpoint), "--out-dir", str(work / "fuzz_out")])
    assert code == expected


# Valid up to the "é" of a row below its header, which Latin-1 writes as the
# lone byte 0xE9: not UTF-8.
def _latin1(header):
    return f"{header}\nx.csv,1.0,2.0,café\n".encode("latin-1")


@pytest.mark.parametrize("argv, bad, expected", [
    (["rate", "{bad}", "--out", "{out}"], _latin1("onset_ms,offset_ms,label"), cli.EXIT_DATA),
    (["eval", "--pred", "{bad}", "--target", "{bad}", "--out", "{out}"], _latin1("onset_ms,offset_ms,label"),
     cli.EXIT_DATA),
    (["train", "--manifest", "{bad}", "--out-dir", "{out}"], _latin1("trial_id,wav_path,labels_path,split"),
     cli.EXIT_DATA),
    (["rate", "{good}", "--windows", "{bad}", "--out", "{out}"], _latin1("path,start_s,end_s"), cli.EXIT_DATA),
    (["train", "--manifest", "{missing}", "--out-dir", "{out}", "--config", "{bad}"],
     '{"train": {"lr": 0.01}} # café'.encode("latin-1"), cli.EXIT_USAGE),
], ids=["segment-csv-rate", "segment-csv-eval", "manifest", "windows-csv", "config"])
def test_non_utf8_input_file_exits_1_or_2(tmp_path, capsys, argv, bad, expected):
    (tmp_path / "bad").write_bytes(bad)
    (tmp_path / "good.csv").write_text("onset_ms,offset_ms,label\n10,20,vot\n20,80,vowel\n")
    paths = {"bad": tmp_path / "bad", "good": tmp_path / "good.csv", "out": tmp_path / "out",
             "missing": tmp_path / "missing.csv"}
    assert cli.main([a.format(**paths) for a in argv]) == expected
    assert "codec can't decode byte 0xe9" in capsys.readouterr().err


def _with_header(header):
    return st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(lambda b: header + b))


@settings(max_examples=60, deadline=None)
@given(blob=_with_header(b"onset_ms,offset_ms,label\n"))
def test_rate_and_eval_on_arbitrary_bytes_never_internal(tmp_path_factory, blob):
    work = tmp_path_factory.getbasetemp()
    seg = work / "fuzz_segments.csv"
    seg.write_bytes(blob)
    assert cli.main(["rate", str(seg), "--out", str(work / "fuzz_rates.csv")]) in (cli.EXIT_OK, cli.EXIT_DATA)
    assert cli.main(["eval", "--pred", str(seg), "--target", str(seg),
                     "--out", str(work / "fuzz_eval.csv")]) in (cli.EXIT_OK, cli.EXIT_DATA)


@settings(max_examples=60, deadline=None)
@given(blob=_with_header(b"trial_id,wav_path,labels_path,split\n"))
def test_train_on_arbitrary_manifest_bytes_is_data_error(tmp_path_factory, blob):
    work = tmp_path_factory.getbasetemp()
    manifest = work / "fuzz_manifest.csv"
    manifest.write_bytes(blob)
    code = cli.main(["train", "--manifest", str(manifest), "--out-dir", str(work / "fuzz_train")])
    assert code == cli.EXIT_DATA


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12)
_SECTION_KEYS = sorted({*ModelConfig.__dataclass_fields__, *TrainConfig.__dataclass_fields__,
                        "n_classes", "leaky_slope", "architecture", "conv_paddings"})


@settings(max_examples=80, deadline=None)
@given(blob=st.one_of(
    st.binary(max_size=200),
    st.dictionaries(st.sampled_from(["model", "train"]),
                    st.dictionaries(st.sampled_from(_SECTION_KEYS), _JSON, max_size=4), max_size=2)
    .map(lambda config: json.dumps(config).encode())))
def test_train_on_arbitrary_config_bytes_exits_1_or_2(tmp_path_factory, blob):
    # The manifest is missing, so a config that loads ends in exit 2.
    work = tmp_path_factory.getbasetemp()
    config = work / "fuzz_config.json"
    config.write_bytes(blob)
    code = cli.main(["train", "--manifest", str(work / "missing.csv"), "--out-dir", str(work / "fuzz_train"),
                     "--config", str(config)])
    assert code in (cli.EXIT_USAGE, cli.EXIT_DATA)


def test_eval_on_directories_names_the_csvs_it_does_not_score(tmp_path, capsys):
    # A prediction or a truth without its counterpart drops out of the
    # scores; eval says which on stderr, and its report is that of the
    # shared names alone, byte for byte.
    rows = "onset_ms,offset_ms,label\n10,20,vot\n20,80,vowel\n"
    for run, names in (("shared", {"pred": ["a"], "truth": ["a"]}),
                       ("extra", {"pred": ["a", "p_only"], "truth": ["a", "t_only", "u_only"]})):
        for side, stems in names.items():
            (tmp_path / run / side).mkdir(parents=True)
            for stem in stems:
                (tmp_path / run / side / f"{stem}.csv").write_text(rows)
    outputs = {}
    for run in ("shared", "extra"):
        work = tmp_path / run
        code = cli.main(["eval", "--pred", str(work / "pred"), "--target", str(work / "truth"),
                         "--out", str(work / "eval.csv"), "--rates-out", str(work / "rates.csv")])
        out, err = capsys.readouterr()
        outputs[run] = (code, out, (work / "eval.csv").read_bytes(), (work / "rates.csv").read_bytes(), err)
    assert outputs["extra"][:4] == outputs["shared"][:4]
    assert outputs["shared"][4] == ""
    pred, truth = tmp_path / "extra" / "pred", tmp_path / "extra" / "truth"
    assert outputs["extra"][4].splitlines() == [f"ddkseg: not scored, only under {pred}: p_only.csv",
                                                f"ddkseg: not scored, only under {truth}: t_only.csv",
                                                f"ddkseg: not scored, only under {truth}: u_only.csv"]
