"""Self-tests of the benchmark's generator and scorer: python3 -m pytest bench"""

import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest

import run
import scoring
import synthgen
import tracing

PLAN = {"rate": 16000, "channels": 1, "sessions": [
    {"trials": [[900, "clean"], [3000, "fast"]]},
    {"trials": [[2500, "noise5"], [2000, "bandreject"]]},
]}


def _truth_pairs(record, shift_ms=0):
    pairs = []
    for session in record["sessions"]:
        for trial in session["trials"]:
            truth = [tuple(s) for s in trial["segments"]]
            pred = [(a + shift_ms, b + shift_ms, label) for a, b, label in truth]
            pairs.append((pred, truth))
    return pairs


def test_truth_against_itself_scores_one(tmp_path):
    pairs = _truth_pairs(synthgen.write_session_set(tmp_path, PLAN, seed=3))
    assert scoring.segment_f1(pairs, "vot") == 1.0
    assert scoring.segment_f1(pairs, "vowel") == 1.0
    assert scoring.boundary_hits(pairs) == 1.0


def test_truth_shifted_25ms_hits_no_boundary(tmp_path):
    pairs = _truth_pairs(synthgen.write_session_set(tmp_path, PLAN, seed=3), shift_ms=25)
    assert scoring.boundary_hits(pairs) == 0.0


def test_segments_tile_trial_on_whole_ms():
    for condition in synthgen.CONDITIONS:
        for rate in (16000, 44100):
            x, segments = synthgen.make_trial(4300, condition, rate, np.random.default_rng(7))
            assert len(x) == round(4300 * rate / 1000)
            assert [s[2] for s in segments] == ["vot", "vowel"] * (len(segments) // 2)
            for (a, b, _), (c, _, _) in zip(segments, segments[1:]):
                assert isinstance(a, int) and isinstance(b, int) and a < b <= c
            for vot, vowel in zip(segments[::2], segments[1::2]):
                assert vot[1] == vowel[0]
            assert segments[-1][1] <= 4300
            if condition == "fast":  # zero gaps: each syllable starts where the last ended
                assert all(a[1] == b[0] for a, b in zip(segments, segments[1:]))


def test_same_seed_gives_identical_files(tmp_path):
    synthgen.write_session_set(tmp_path / "a", PLAN, seed=11)
    synthgen.write_session_set(tmp_path / "b", PLAN, seed=11)
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    synthgen.write_session_set(tmp_path / "c", PLAN, seed=12)
    assert (tmp_path / "c" / files_a[0]).read_bytes() != (tmp_path / "a" / files_a[0]).read_bytes()


def test_extensible_writer_emits_format_tag_fffe(tmp_path):
    samples = np.zeros((160, 2))
    synthgen.write_wav(tmp_path / "x.wav", samples, 44100, extensible=True)
    data = (tmp_path / "x.wav").read_bytes()
    assert data[12:16] == b"fmt "
    fmt_size, tag, channels, rate = struct.unpack_from("<IHHI", data, 16)
    assert (fmt_size, tag, channels, rate) == (40, 0xFFFE, 2, 44100)
    valid_bits, _mask, subformat = struct.unpack_from("<HI16s", data, 38)
    assert valid_bits == 16 and subformat == synthgen.KSDATAFORMAT_SUBTYPE_PCM
    assert data[60:64] == b"data" and struct.unpack_from("<I", data, 64)[0] == 160 * 2 * 2


def test_majority_frame_share_counts_whole_windows():
    # 2.5 s holds two whole windows (2000 frames); the vowel past 2000 ms counts only up to it.
    trial = {"duration_ms": 2500, "segments": [(100, 150, "vot"), (150, 1450, "vowel"), (1900, 2300, "vowel")]}
    assert scoring.majority_frame_share([trial]) == 1400 / 2000


def test_segment_csv_checks(tmp_path):
    path = tmp_path / "p.csv"
    synthgen.write_segments(path, [(10, 30, "vot"), (30, 150, "vowel")])
    assert scoring.read_segments(path, 200) == [(10, 30, "vot"), (30, 150, "vowel")]
    for bad, duration in (([(10, 30, "vot"), (20, 150, "vowel")], 200), ([(10, 30, "vot")], 25)):
        synthgen.write_segments(path, bad)
        with pytest.raises(ValueError):
            scoring.read_segments(path, duration)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {**tracing.per_layer_metric_units(), **run.EXTRA_PER_LAYER_UNITS})


def test_timed_command_seconds_are_reference_seconds(monkeypatch, tmp_path):
    import hostspeed

    host_times = iter([0.01, 0.03])  # before and after the command
    monkeypatch.setattr(hostspeed, "workload_s", lambda: next(host_times))

    class SleepingCli:
        @staticmethod
        def main(argv):
            time.sleep(0.05)
            return 0

    timed = run.Run(SleepingCli, tmp_path)
    timed.counting = True
    ok, seconds = timed.call(["segment"], "segment")
    assert ok and timed.attempted == 1 and timed.host_s == [0.02]
    wall = seconds * 0.02 / hostspeed.REFERENCE_S
    assert 0.05 <= wall < 1.0
