"""Invariants of the synthetic corpus generator."""

import pytest

from ddkseg.audio import SAMPLES_PER_MS
from ddkseg.synth import TrialSpec, generate_corpus, generate_trial


@pytest.mark.parametrize("spec", [
    TrialSpec(seed=0),
    TrialSpec(syllable_count=1, seed=1),
    TrialSpec(syllable_count=12, vot_ms=(5, 6), gap_ms=(1, 1), lead_ms=(1, 2), seed=2),
    TrialSpec(syllable_count=4, vowel_ms=(300, 400), gap_ms=(200, 400), seed=3),
])
def test_segments_tile_the_trial_on_whole_ms(spec):
    wave, segments = generate_trial(spec)
    assert len(wave.samples) == wave.duration_ms * SAMPLES_PER_MS
    assert all(isinstance(b, int) for s in segments for b in (s.onset_ms, s.offset_ms))
    assert segments[0].onset_ms == 0
    assert all(a.offset_ms == b.onset_ms for a, b in zip(segments, segments[1:]))
    assert segments[-1].offset_ms == wave.duration_ms


def test_same_seed_writes_byte_identical_corpus(tmp_path):
    manifests = [generate_corpus(5, (0.6, 0.2, 0.2), seed=11, out_dir=tmp_path / d, syllable_range=(2, 4))
                 for d in ("a", "b")]
    files = [sorted(p.name for p in m.parent.iterdir()) for m in manifests]
    assert files[0] == files[1]
    assert {n.rsplit(".", 1)[1] for n in files[0]} == {"wav", "csv"}
    assert len(files[0]) == 2 * 5 + 1
    for name in files[0]:
        assert (manifests[0].parent / name).read_bytes() == (manifests[1].parent / name).read_bytes(), name
