import struct
import wave as stdlib_wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddkseg import audio
from ddkseg.audio import (MODEL_RATE_HZ, Waveform, cut_windows, frame_owners, read_wav, resample, stitch_predictions,
                          write_wav)
from ddkseg.errors import DataError, InternalError


def make_wav_bytes(frames: bytes, channels=1, sample_rate=44100, bits=16, audio_format=1) -> bytes:
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(frames), b"WAVE",
        b"fmt ", 16, audio_format, channels, sample_rate,
        sample_rate * channels * bits // 8, channels * bits // 8, bits,
        b"data", len(frames))
    return header + frames


PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")


def make_extensible_wav_bytes(frames: bytes, channels=1, sample_rate=44100, subformat=PCM_GUID) -> bytes:
    block = 2 * channels
    fmt = struct.pack("<HHIIHHHHI16s", 0xFFFE, channels, sample_rate, sample_rate * block, block, 16,
                      22, 16, 0x4 if channels == 1 else (1 << channels) - 1, subformat)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(frames)) + frames
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def test_read_wav_int16_scaling(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(make_wav_bytes(np.array([0, 16384, -32768], dtype="<i2").tobytes()))
    wave = read_wav(path)
    assert wave.sample_rate_hz == 44100
    np.testing.assert_array_equal(wave.samples, [0.0, 0.5, -1.0])


def test_read_wav_stereo_average(tmp_path):
    path = tmp_path / "st.wav"
    path.write_bytes(make_wav_bytes(np.array([1000, 3000], dtype="<i2").tobytes(), channels=2))
    wave = read_wav(path)
    np.testing.assert_array_equal(wave.samples, [2000 / 32768.0])


@settings(max_examples=60, deadline=None)
@given(ints=st.lists(st.integers(-32768, 32767), max_size=41), channels=st.sampled_from([1, 2, 3, 4, 6, 8]))
def test_read_wav_matches_stdlib_reader(tmp_path_factory, ints, channels):
    path = tmp_path_factory.getbasetemp() / "stdlib.wav"
    path.write_bytes(make_wav_bytes(np.array(ints, dtype="<i2").tobytes(), channels=channels))
    with stdlib_wave.open(str(path)) as fh:
        frames = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2").reshape(-1, channels)
    # Bit-exact: float64 sums of int16 samples are exact, and scaling by a
    # power of two commutes with the rounding of the channel mean.
    want = frames.mean(axis=1) / 32768.0
    got = read_wav(path).samples
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)


def test_read_wav_rejects_8bit(tmp_path):
    path = tmp_path / "e.wav"
    path.write_bytes(make_wav_bytes(b"\x00\x01\x02", bits=8))
    with pytest.raises(DataError, match=r"only 16-bit integer PCM is supported \(format=1, bits=8\)"):
        read_wav(path)


def test_read_wav_rejects_float_pcm(tmp_path):
    path = tmp_path / "f.wav"
    path.write_bytes(make_wav_bytes(b"\x00" * 8, audio_format=3, bits=16))
    with pytest.raises(DataError, match=r"only 16-bit integer PCM is supported \(format=3, bits=16\)"):
        read_wav(path)


def test_read_wav_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "nope.wav")


def test_read_wav_malformed(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a riff file at all")
    with pytest.raises(DataError, match="not a RIFF/WAVE file"):
        read_wav(path)


def test_read_wav_truncated_data(tmp_path):
    good = make_wav_bytes(np.zeros(100, dtype="<i2").tobytes())
    path = tmp_path / "trunc.wav"
    path.write_bytes(good[:-50])
    with pytest.raises(DataError, match="data chunk truncated"):
        read_wav(path)


def test_wav_roundtrip_exact(tmp_path, rng):
    ints = rng.integers(-32768, 32768, size=1234).astype("<i2")
    path = tmp_path / "rt.wav"
    write_wav(path, Waveform(ints / 32768.0, 16000))
    back = read_wav(path)
    np.testing.assert_array_equal(np.round(back.samples * 32768).astype("<i2"), ints)
    assert back.sample_rate_hz == 16000


def test_waveform_invariants():
    with pytest.raises(ValueError):
        Waveform(np.array([1.0]), 16000)  # 1.0 excluded
    with pytest.raises(ValueError):
        Waveform(np.array([0.0]), 0)
    assert Waveform(np.zeros(16008), 16000).duration_ms == 1000
    assert Waveform(np.zeros(0), 16000).duration_ms == 0


def test_resample_identity_bit_exact(rng):
    wave = Waveform(rng.uniform(-0.5, 0.5, 1000), 16000)
    out = resample(wave, 16000)
    np.testing.assert_array_equal(out.samples, wave.samples)
    assert np.shares_memory(out.samples, wave.samples)  # no copy at the model rate


def test_resample_length():
    wave = Waveform(np.zeros(44100), 44100)
    assert len(resample(wave, 16000)) == 16000
    assert len(resample(Waveform(np.zeros(8000), 8000), 16000)) == 16000


def test_resample_idempotent_at_fixed_rate(rng):
    wave = Waveform(rng.uniform(-0.5, 0.5, 4410), 44100)
    once = resample(wave, 16000)
    twice = resample(once, 16000)
    np.testing.assert_array_equal(once.samples, twice.samples)


def test_resample_sine_spectrum():
    # 1 kHz tone at 44.1 kHz -> 16 kHz: dominant bin at 1 kHz, sidebands
    # at least 40 dB down.
    n = 44100
    t = np.arange(n) / 44100.0
    wave = Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t), 44100)
    out = resample(wave, 16000).samples
    inner = out[2000:-2000] * np.hanning(len(out) - 4000)
    spec = np.abs(np.fft.rfft(inner))
    freqs = np.fft.rfftfreq(len(inner), 1 / 16000.0)
    peak = np.argmax(spec)
    assert abs(freqs[peak] - 1000.0) < 2.0
    # exclude the main lobe (+/- 40 Hz) and measure the worst sideband
    lobe = np.abs(freqs - freqs[peak]) < 40.0
    worst = spec[~lobe].max()
    assert 20 * np.log10(worst / spec[peak]) < -40.0


def test_resample_alignment_with_analytic_sine():
    # The polyphase filter is delay-compensated: output sample n should
    # match the source sine evaluated at n / target_rate.
    t = np.arange(44100) / 44100.0
    wave = Waveform(0.5 * np.sin(2 * np.pi * 440.0 * t), 44100)
    out = resample(wave, 16000).samples
    t16 = np.arange(len(out)) / 16000.0
    expected = 0.5 * np.sin(2 * np.pi * 440.0 * t16)
    np.testing.assert_allclose(out[200:-200], expected[200:-200], atol=5e-4)


def test_cut_windows_starts():
    # 1000 ms windows every 800 ms while a window ends before the last
    # whole frame, then one that ends there; a shorter signal is one window.
    assert (audio.WINDOW_MS, audio.HOP_MS) == (1000, 800)
    for total, starts in [(2500, [0, 800, 1500]), (1800, [0, 800]), (1001, [0, 1]),
                          (1000, [0]), (600, [0]), (0, [])]:
        wins = cut_windows(Waveform(np.zeros(total * 16 + 7), MODEL_RATE_HZ))
        assert [s for s, _ in wins] == starts
        full = [16000] * len(starts) if total >= 1000 else [total * 16 + 7][:len(starts)]
        assert [len(w) for _, w in wins] == full


@pytest.mark.parametrize("total,window,hop", [(2500, 1000, 800), (3100, 1000, 1000),
                                              (999, 1000, 500), (5000, 700, 300)])
def test_cut_windows_cover_signal(monkeypatch, total, window, hop):
    # The start rule holds for any 0 < hop <= window, not just the constants'.
    monkeypatch.setattr(audio, "WINDOW_MS", window)
    monkeypatch.setattr(audio, "HOP_MS", hop)
    wave = Waveform(np.zeros(total * 16), MODEL_RATE_HZ)
    wins = cut_windows(wave)
    starts = [s for s, _ in wins]
    assert starts[0] == 0
    assert all(b - a == hop for a, b in zip(starts, starts[1:-1]))
    assert all(0 < b - a <= hop for a, b in zip(starts[-2:-1], starts[-1:]))
    assert all(w.duration_ms == min(window, total) for _, w in wins)
    covered = np.zeros(total, dtype=bool)
    for start, w in wins:
        covered[start:start + w.duration_ms] = True
    assert covered.all()
    assert starts[-1] + wins[-1][1].duration_ms == total


def test_cut_windows_are_views():
    wave = Waveform(np.linspace(-0.5, 0.5, 2500 * 16), MODEL_RATE_HZ)
    for start, w in cut_windows(wave):
        lo = start * 16
        assert np.shares_memory(w.samples, wave.samples)
        np.testing.assert_array_equal(w.samples, wave.samples[lo:lo + len(w)])


def test_cut_windows_empty():
    assert cut_windows(Waveform(np.zeros(0), MODEL_RATE_HZ)) == []


@settings(max_examples=150, deadline=None)
@given(covered_ms=st.integers(0, 20_000), extra=st.integers(0, 15))
def test_window_plan(covered_ms, extra):
    # The plan predict_file runs: full windows once there are WINDOW_MS
    # whole frames, increasing starts, the last window ending at the last
    # whole frame, and one contiguous, non-empty owned span per window (the
    # CNN's keep= raises ValueError on an empty one).
    wave = Waveform(np.linspace(-0.5, 0.5, covered_ms * 16 + extra), MODEL_RATE_HZ)
    wins = cut_windows(wave)
    starts = [s for s, _ in wins]
    if covered_ms >= audio.WINDOW_MS:
        assert all(len(w) == audio.WINDOW_MS * 16 for _, w in wins)
    else:
        assert [len(w) for _, w in wins] == ([len(wave)] if covered_ms else [])
    if not wins:
        return
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert starts[-1] + len(wins[-1][1]) // 16 == covered_ms
    for start, w in wins:
        assert np.shares_memory(w.samples, wave.samples)
        np.testing.assert_array_equal(w.samples, wave.samples[start * 16:start * 16 + len(w)])
    owner = frame_owners([(s, len(w) // 16) for s, w in wins], covered_ms)
    assert (owner >= 0).all()
    assert (np.diff(owner) >= 0).all()
    np.testing.assert_array_equal(np.unique(owner), np.arange(len(wins)))


@st.composite
def _covering_windows(draw):
    """(total_ms, [(start, frames)]) in random order: a chain of windows,
    each starting at or before the frame the previous ones reach, covers
    [0, total_ms); extra windows land anywhere, and any may run past the end."""
    total = draw(st.integers(1, 400))
    windows, reached = [], 0
    while reached < total:
        start = draw(st.integers(max(0, reached - 60), reached))
        frames = draw(st.integers(reached - start + 1, reached - start + 250))
        windows.append((start, frames))
        reached = start + frames
    windows += draw(st.lists(st.tuples(st.integers(0, total - 1), st.integers(1, 250)), max_size=3))
    return total, draw(st.permutations(windows))


@settings(max_examples=300, deadline=None)
@given(case=_covering_windows())
def test_stitch_takes_every_row_from_its_owner(case):
    total, windows = case
    # Row k of window i reads (i, start + k), so each output row names its source.
    arrays = [(start, np.stack([np.full(n, i), start + np.arange(n)], axis=1)) for i, (start, n) in enumerate(windows)]
    out = stitch_predictions(arrays, total)
    owner = frame_owners(windows, total)
    assert (owner >= 0).all()
    np.testing.assert_array_equal(out, np.stack([owner, np.arange(total)], axis=1))


def test_stitch_identity_single_window():
    labels = np.array([0, 1, 2, 1, 0], dtype=np.int8)
    out = stitch_predictions([(0, labels)], 5)
    np.testing.assert_array_equal(out, labels)


def test_stitch_agreeing_overlap_invariant(rng):
    labels = rng.integers(0, 3, size=18).astype(np.int8)
    windows = [(0, labels[:10]), (8, labels[8:])]
    np.testing.assert_array_equal(stitch_predictions(windows, 18), labels)


def test_stitch_disagreement_goes_to_nearer_center():
    # Window A covers [0, 10) (center 5), window B covers [6, 16)
    # (center 11). Crossover at 8: frames 0-7 from A, 8-15 from B.
    a = np.zeros(10, dtype=np.int8)
    b = np.full(10, 2, dtype=np.int8)
    out = stitch_predictions([(0, a), (6, b)], 16)
    np.testing.assert_array_equal(out[:8], 0)
    np.testing.assert_array_equal(out[8:], 2)


def test_stitch_gap_raises():
    with pytest.raises(InternalError):
        stitch_predictions([(0, np.zeros(5, dtype=np.int8))], 10)


def test_stitch_probability_rows():
    probs_a = np.full((10, 3), 0.1, dtype=np.float32)
    probs_b = np.full((10, 3), 0.9, dtype=np.float32)
    out = stitch_predictions([(0, probs_a), (6, probs_b)], 16)
    assert out.shape == (16, 3)
    np.testing.assert_array_equal(out[:8], np.float32(0.1))
    np.testing.assert_array_equal(out[8:], np.float32(0.9))


def test_cut_then_stitch_recovers_frame_count(rng):
    wave = Waveform(rng.uniform(-0.5, 0.5, 3457 * 16), MODEL_RATE_HZ)
    wins = cut_windows(wave)
    labeled = [(s, np.full(w.duration_ms, 1, dtype=np.int8)) for s, w in wins]
    out = stitch_predictions(labeled, 3457)
    assert len(out) == 3457
    assert (out == 1).all()


# In make_wav_bytes' header the fmt channel count (uint16) sits at byte 22, the
# sample rate (uint32) at byte 24 and the block align (uint16) at byte 32.
@pytest.mark.parametrize("field, offset, value, message", [
    ("<I", 24, 0, "sample rate is 0 Hz"),
    ("<H", 32, 4, "block align 4 does not match 1 channel"),
    ("<H", 32, 1, "block align 1 does not match 1 channel"),
    ("<H", 22, 0, "no channels"),
])
def test_read_wav_rejects_inconsistent_fmt(tmp_path, field, offset, value, message):
    data = bytearray(make_wav_bytes(np.zeros(10, dtype="<i2").tobytes(), sample_rate=16000))
    struct.pack_into(field, data, offset, value)
    path = tmp_path / "x.wav"
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match=message):
        read_wav(path)


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_read_wav_extensible_pcm_reads_like_plain_pcm(tmp_path, rng, channels):
    frames = rng.integers(-32768, 32768, size=12 * channels).astype("<i2").tobytes()
    (tmp_path / "plain.wav").write_bytes(make_wav_bytes(frames, channels=channels))
    (tmp_path / "ext.wav").write_bytes(make_extensible_wav_bytes(frames, channels=channels))
    plain, ext = read_wav(tmp_path / "plain.wav"), read_wav(tmp_path / "ext.wav")
    assert ext.sample_rate_hz == plain.sample_rate_hz == 44100
    np.testing.assert_array_equal(ext.samples, plain.samples)


def test_read_wav_extensible_rejects_non_pcm_subformat(tmp_path):
    float_guid = bytes.fromhex("0300000000001000800000aa00389b71")
    path = tmp_path / "f.wav"
    path.write_bytes(make_extensible_wav_bytes(b"\x00" * 8, subformat=float_guid))
    with pytest.raises(DataError, match=r"only 16-bit integer PCM is supported \(format=65534, bits=16\)"):
        read_wav(path)


@pytest.mark.parametrize("tail", [0, 1, 3])
def test_read_wav_streamed_data_runs_to_end_of_file(tmp_path, rng, tail):
    # A recorder writing to a pipe cannot seek back, so both sizes stay 0xFFFFFFFF.
    pcm = rng.integers(-32768, 32768, size=(9, 2)).astype("<i2")
    data = bytearray(make_wav_bytes(pcm.tobytes() + b"\x01" * tail, channels=2))
    struct.pack_into("<I", data, 4, 0xFFFFFFFF)
    struct.pack_into("<I", data, 40, 0xFFFFFFFF)
    path = tmp_path / "streamed.wav"
    path.write_bytes(bytes(data))
    np.testing.assert_array_equal(read_wav(path).samples, pcm.mean(axis=1) / 32768.0)


# Byte offset and struct format of every size and fmt field in make_wav_bytes' header.
WAV_FIELDS = [(4, "<I"), (16, "<I"), (20, "<H"), (22, "<H"), (24, "<I"), (28, "<I"), (32, "<H"), (34, "<H"),
              (40, "<I")]


@settings(max_examples=300, deadline=None)
@given(extensible=st.booleans(),
       mutations=st.lists(st.tuples(st.sampled_from(WAV_FIELDS), st.integers(0, 2**32 - 1)), max_size=4),
       cut=st.integers(0, 200))
def test_read_wav_mutated_header_raises_only_data_error(tmp_path_factory, extensible, mutations, cut):
    frames = np.arange(-40, 40, dtype="<i2").tobytes()
    data = bytearray(make_extensible_wav_bytes(frames) if extensible else make_wav_bytes(frames))
    for (offset, field), value in mutations:
        struct.pack_into(field, data, offset, value % 2 ** (8 * struct.calcsize(field)))
    path = tmp_path_factory.getbasetemp() / "mutated.wav"
    path.write_bytes(bytes(data[:len(data) - cut]))
    try:
        wave = read_wav(path)
    except DataError:
        return
    assert wave.samples.ndim == 1 and wave.sample_rate_hz > 0
