"""Exit-code contract of the CLI: bad user input exits 1 (usage/config) or
2 (data), never 3 (internal error)."""

import json

import numpy as np
import pytest
from conftest import TINY_LSTM
from hypothesis import given, settings
from hypothesis import strategies as st

from ddkseg import cli
from ddkseg.audio import Waveform, read_wav, write_wav
from ddkseg.errors import DataError
from ddkseg.models import Segmenter, save_checkpoint


def test_synth_non_numeric_split_is_usage_error(tmp_path, capsys):
    assert cli.main(["synth", "--out-dir", str(tmp_path), "--split", "a,b,c"]) == cli.EXIT_USAGE
    assert "--split" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["x.csv,abc,2.0", "x.csv,1.0"])
def test_rate_bad_windows_row_is_data_error(tmp_path, capsys, row):
    seg = tmp_path / "x.csv"
    seg.write_text("onset_ms,offset_ms,label\n10,20,vot\n20,80,vowel\n")
    windows = tmp_path / "windows.csv"
    windows.write_text(f"path,start_s,end_s\n{row}\n")
    code = cli.main(["rate", str(seg), "--windows", str(windows), "--out", str(tmp_path / "rates.csv")])
    assert code == cli.EXIT_DATA
    assert "windows.csv:2: expected path,start_s,end_s" in capsys.readouterr().err


@pytest.mark.parametrize("train, flags, message", [
    ({"batch_size": 0}, [], "batch_size must be >= 1"),
    ({"patience": 99}, [], "patience cannot exceed max_epochs"),
    ({"batch_size": "eight"}, [], "invalid config"),
    ({}, ["--batch-size", "0"], "batch_size must be >= 1"),
    ({"patience": 4}, ["--epochs", "3"], "patience cannot exceed max_epochs"),
])
def test_train_bad_config_is_usage_error(tmp_path, capsys, train, flags, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": train}))
    # The configuration is checked before the manifest is opened.
    code = cli.main(["train", "--manifest", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "out"),
                     "--config", str(config), *flags])
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "[]", '{"train": 5}', '{"model": []}', '{"model": 5}'])
def test_train_config_of_wrong_json_shape_is_usage_error(tmp_path, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    code = cli.main(["train", "--manifest", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "out"),
                     "--config", str(config)])
    assert code == cli.EXIT_USAGE


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


def test_segment_all_readable_exits_0(tmp_path, tiny_checkpoint):
    wav = tmp_path / "a.wav"
    write_wav(wav, Waveform(np.zeros(4000), 16000))
    code = cli.main(["segment", str(wav), "--checkpoint", str(tiny_checkpoint), "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert (tmp_path / "a.csv").is_file()


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
