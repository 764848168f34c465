import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddkseg.errors import DataError
from ddkseg.postproc import (MAX_VOT_GAP_MS, MIN_VOT_MS, MIN_VOWEL_MS, OTHER, VOT, VOWEL, Segment, postprocess,
                             read_segments_csv, speech_segments, write_segments_csv, write_textgrid)


def seg(onset, offset, label):
    return Segment(onset, offset, label)


def rasterize(segments: list[Segment], total_ms: int) -> np.ndarray:
    """Paint segments onto a label array. Frames no segment covers are
    OTHER."""
    frames = np.full(total_ms, OTHER, dtype=np.int8)
    for s in segments:
        frames[s.onset_ms:min(s.offset_ms, total_ms)] = s.label
    return frames


def oracle_postprocess(frames: np.ndarray) -> list[Segment]:
    """Independent rule application, painting frame arrays directly."""
    frames = np.asarray(frames, dtype=np.int64).copy()

    def runs(arr):
        out = []
        i = 0
        while i < len(arr):
            j = i
            while j < len(arr) and arr[j] == arr[i]:
                j += 1
            out.append((i, j, int(arr[i])))
            i = j
        return out

    # rule 2: short VOT / vowel runs become silence
    for lo, hi, label in runs(frames):
        if label == VOT and hi - lo < MIN_VOT_MS:
            frames[lo:hi] = OTHER
        if label == VOWEL and hi - lo < MIN_VOWEL_MS:
            frames[lo:hi] = OTHER
    # rule 3: short silence between two VOT runs becomes VOT, repeatedly
    while True:
        rs = runs(frames)
        changed = False
        for k in range(1, len(rs) - 1):
            lo, hi, label = rs[k]
            if (label == OTHER and hi - lo < MAX_VOT_GAP_MS
                    and rs[k - 1][2] == VOT and rs[k + 1][2] == VOT):
                frames[lo:hi] = VOT
                changed = True
                break
        if not changed:
            break
    return [Segment(lo, hi, label) for lo, hi, label in runs(frames)]


def test_group_frames_examples():
    frames = [VOWEL] * 30 + [OTHER] * 10 + [VOT] * 8
    assert postprocess(frames) == [seg(0, 30, VOWEL), seg(30, 40, OTHER), seg(40, 48, VOT)]
    assert postprocess([OTHER] * 100) == [seg(0, 100, OTHER)]
    alternating = [VOWEL, OTHER] * 3  # 1 ms vowels: all OTHER
    assert postprocess(alternating) == [seg(0, 6, OTHER)]
    assert postprocess([]) == []


def test_group_then_rasterize_roundtrip(rng):
    # Runs of 20 ms or more, which no rule changes.
    frames = np.repeat(rng.integers(0, 3, size=25), rng.integers(MAX_VOT_GAP_MS, 40, size=25))
    np.testing.assert_array_equal(rasterize(postprocess(frames), len(frames)), frames)


def test_min_duration_rules():
    assert postprocess([VOT] * 4 + [VOWEL] * 26) == [seg(0, 4, OTHER), seg(4, 30, VOWEL)]
    # exactly at threshold: kept (strict less-than)
    assert postprocess([VOT] * 5) == [seg(0, 5, VOT)]
    assert postprocess([OTHER] * 10 + [VOWEL] * 19) == [seg(0, 29, OTHER)]
    assert postprocess([OTHER] * 10 + [VOWEL] * 20) == [seg(0, 10, OTHER), seg(10, 30, VOWEL)]


def test_min_duration_merges_neighbours():
    assert postprocess([OTHER] * 10 + [VOT] * 4 + [OTHER] * 6) == [seg(0, 20, OTHER)]


def test_merge_vot_gaps_examples():
    assert postprocess([VOT] * 10 + [OTHER] * 15 + [VOT] * 10) == [seg(0, 35, VOT)]
    # gap exactly 20 ms: unchanged
    assert postprocess([VOT] * 10 + [OTHER] * 20 + [VOT] * 10) == [
        seg(0, 10, VOT), seg(10, 30, OTHER), seg(30, 40, VOT)]
    chain = [VOT] * 10 + [OTHER] * 5 + [VOT] * 10 + [OTHER] * 5 + [VOT] * 10
    assert postprocess(chain) == [seg(0, 40, VOT)]


def test_postprocess_rule_order():
    frames = [VOT] * 4 + [VOWEL] * 25
    assert postprocess(frames) == [seg(0, 4, OTHER), seg(4, 29, VOWEL)]
    frames = [VOT] * 10 + [OTHER] * 10 + [VOT] * 10 + [VOWEL] * 50
    assert postprocess(frames) == [seg(0, 30, VOT), seg(30, 80, VOWEL)]


def test_postprocess_short_vowel_between_vots_merges():
    # rule 2 turns the short vowel into silence, rule 3 then absorbs it
    frames = [VOT] * 10 + [VOWEL] * 10 + [VOT] * 10
    assert postprocess(frames) == [seg(0, 30, VOT)]


def test_postprocess_matches_oracle_randomized(rng):
    for _ in range(2000):
        length = int(rng.integers(1, 300))
        if rng.random() < 0.5:
            frames = rng.integers(0, 3, size=length)
        else:
            # structured runs, more representative of model output
            frames = np.repeat(rng.integers(0, 3, size=max(1, length // 7)),
                               rng.integers(1, 25, size=max(1, length // 7)))[:length]
            if len(frames) == 0:
                continue
        got = postprocess(frames)
        want = oracle_postprocess(frames)
        assert got == want


def test_postprocess_idempotent(rng):
    for _ in range(300):
        frames = rng.integers(0, 3, size=int(rng.integers(1, 400)))
        once = postprocess(frames)
        total = len(frames)
        again = postprocess(rasterize(once, total))
        assert once == again


# Frame sequences as runs of one label, with lengths around the rules'
# thresholds (5, 20 and 20 ms), the way model output comes.
_RUNS = st.lists(st.tuples(st.sampled_from([OTHER, VOT, VOWEL]), st.integers(1, 45)), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(runs=_RUNS)
def test_postprocess_invariants(runs):
    frames = np.repeat([label for label, _ in runs], [n for _, n in runs])
    segments = postprocess(frames)
    # Ordered, non-overlapping and tiling the input, with maximal runs.
    assert segments[0].onset_ms == 0
    assert segments[-1].offset_ms == len(frames)
    for a, b in zip(segments, segments[1:]):
        assert a.offset_ms == b.onset_ms
        assert a.label != b.label
    for s in segments:
        if s.label == VOT:
            assert s.duration_ms >= MIN_VOT_MS
        if s.label == VOWEL:
            assert s.duration_ms >= MIN_VOWEL_MS
    for a, b, c in zip(segments, segments[1:], segments[2:]):
        assert not (a.label == VOT and c.label == VOT and b.label == OTHER
                    and b.duration_ms < MAX_VOT_GAP_MS)


def test_segment_csv_roundtrip(tmp_path):
    segments = [seg(0, 120, OTHER), seg(120, 160, VOT), seg(160, 300, VOWEL)]
    path = tmp_path / "segs.csv"
    # the export keeps speech segments only, and reads back exactly
    write_segments_csv(path, segments)
    assert read_segments_csv(path) == speech_segments(segments) == segments[1:]


def test_segment_csv_rejects_bad_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("onset_ms,offset_ms,label\n0,10,consonant\n")
    with pytest.raises(DataError):
        read_segments_csv(path)


def test_segment_csv_rejects_overlap(tmp_path):
    path = tmp_path / "over.csv"
    path.write_text("onset_ms,offset_ms,label\n0,10,vot\n5,20,vowel\n")
    with pytest.raises(DataError):
        read_segments_csv(path)


def test_segment_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("start,end,label\n0,10,vot\n")
    with pytest.raises(DataError):
        read_segments_csv(path)


def test_textgrid_export(tmp_path):
    path = tmp_path / "x.TextGrid"
    write_textgrid(path, [seg(100, 150, VOT), seg(150, 280, VOWEL)], total_ms=400)
    text = path.read_text()
    assert 'class = "IntervalTier"' in text
    assert text.count("intervals [") == 4  # lead gap, vot, vowel, tail gap
    assert '"vot"' in text and '"vowel"' in text
