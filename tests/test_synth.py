"""Invariants of the synthetic corpus generator."""

import csv
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddkseg.audio import SAMPLES_PER_MS
from ddkseg.errors import ConfigError
from ddkseg.synth import TrialSpec, generate_corpus, generate_trial, split_counts


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


@pytest.mark.parametrize("n_trials, ratios, counts", [
    (5, (0.0, 0.5, 0.5), [0, 3, 2]),
    (3, (0.0, 0.5, 0.5), [0, 2, 1]),
    (3, (0.5, 0.5, 0.0), [2, 1, 0]),
    (100, (0.6, 0.2, 0.2), [60, 20, 20]),
    (7, (0.6, 0.2, 0.2), [4, 2, 1]),
])
def test_split_counts_examples(n_trials, ratios, counts):
    assert split_counts(n_trials, ratios) == counts


@given(n_trials=st.integers(1, 500),
       weights=st.lists(st.sampled_from([0, 1, 2, 3, 7]), min_size=3, max_size=3).filter(any))
def test_split_counts_sum_to_the_trials_and_skip_zero_ratios(n_trials, weights):
    ratios = tuple(w / sum(weights) for w in weights)
    counts = split_counts(n_trials, ratios)
    assert sum(counts) == n_trials
    for count, ratio in zip(counts, ratios):
        assert math.floor(n_trials * ratio) <= count <= math.floor(n_trials * ratio) + 1
        if ratio == 0:
            assert count == 0


def test_corpus_splits_follow_the_counts(tmp_path):
    # Rounding each share on its own put one of these trials in train.
    manifest = generate_corpus(5, (0.0, 0.5, 0.5), seed=1, out_dir=tmp_path, syllable_range=(1, 1))
    with open(manifest, newline="") as fh:
        splits = [row["split"] for row in csv.DictReader(fh)]
    assert sorted(splits) == ["test"] * 2 + ["val"] * 3


@pytest.mark.parametrize("n_trials, ratios, syllable_range, message", [
    (0, (0.6, 0.2, 0.2), (7, 11), "trial count must be >= 1, got 0"),
    (5, (0.6, -0.2, 0.6), (7, 11), "split ratios must be finite and >= 0"),
    (5, (math.nan, 0.5, 0.5), (7, 11), "split ratios must be finite and >= 0"),
    (5, (0.5, 0.5, 0.5), (7, 11), "split ratios must sum to 1"),
    (5, (0.6, 0.2, 0.2), (0, 3), "syllable range must have 1 <= min <= max, got (0, 3)"),
    (5, (0.6, 0.2, 0.2), (5, 4), "syllable range must have 1 <= min <= max, got (5, 4)"),
], ids=["no-trials", "negative-ratio", "nan-ratio", "ratios-over-1", "min-0", "min-above-max"])
def test_an_invalid_corpus_request_is_config_error(tmp_path, n_trials, ratios, syllable_range, message):
    out = tmp_path / "corpus"
    with pytest.raises(ConfigError, match=re.escape(message)):
        generate_corpus(n_trials, ratios, seed=0, out_dir=out, syllable_range=syllable_range)
    assert not out.exists()
