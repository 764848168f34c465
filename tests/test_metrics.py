import numpy as np
import pytest

from ddkseg.metrics import (MatchedPairs, boundary_mad, ddk_rate, ddk_rate_vot_only, duration_stats,
                            evaluate_pairs, f1_scores, match_segments, trim_outliers)
from ddkseg.postproc import OTHER, VOT, VOWEL, Segment


def seg(onset, offset, label):
    return Segment(onset, offset, label)


def make_trial(vot_ms, vowel_ms, gap_ms, count, lead_ms=100):
    """Regular syllable train: count x (vot, vowel, gap)."""
    out = []
    t = lead_ms
    for _ in range(count):
        out.append(seg(t, t + vot_ms, VOT))
        t += vot_ms
        out.append(seg(t, t + vowel_ms, VOWEL))
        t += vowel_ms
        t += gap_ms
    return out


def test_ddk_rate_definition():
    # 10 syllables, first VOT onset 0.5 s, last vowel offset 5.5 s -> 2.0/s
    segments = make_trial(vot_ms=50, vowel_ms=150, gap_ms=300, count=10, lead_ms=500)
    assert segments[0].onset_ms == 500
    assert segments[-1].offset_ms == 500 + 10 * 500 - 300  # 5200... adjust below
    # stretch the final vowel so the last offset lands at 5500 exactly
    segments[-1] = seg(segments[-1].onset_ms, 5500, VOWEL)
    result = ddk_rate(segments)
    # vowel-split correction: final vowel is 450 ms vs mean ~180 -> fires once
    assert result.articulation_time_s == pytest.approx(5.0)
    assert result.count.raw_count == 10


def test_ddk_rate_simple_uniform():
    segments = make_trial(vot_ms=50, vowel_ms=150, gap_ms=300, count=10, lead_ms=500)
    result = ddk_rate(segments)
    assert result.count.raw_count == 10
    assert result.count.corrected_count == 10
    # articulation: first VOT onset 500, last vowel offset 500+10*500-300=5200
    assert result.articulation_time_s == pytest.approx(4.7)
    assert result.rate_per_s == pytest.approx(10 / 4.7)


def test_vowel_split_correction_thresholds():
    # five 100 ms vowels plus one 250 ms: mean 125, threshold 250 -> no correction
    segments = []
    t = 0
    for d in (100, 100, 100, 100, 100, 250):
        segments.append(seg(t, t + 30, VOT))
        t += 30
        segments.append(seg(t, t + d, VOWEL))
        t += d + 50
    result = ddk_rate(segments)
    assert result.count.corrected_count == result.count.raw_count == 6

    # five 100 ms vowels plus one 300 ms: mean 133.3, threshold 266.7 -> +1
    segments = []
    t = 0
    for d in (100, 100, 100, 100, 100, 300):
        segments.append(seg(t, t + 30, VOT))
        t += 30
        segments.append(seg(t, t + d, VOWEL))
        t += d + 50
    result = ddk_rate(segments)
    assert result.count.raw_count == 6
    assert result.count.corrected_count == 7
    assert result.count.corrections[0][1] == "vowel-split"


def test_ddk_rate_undefined_cases():
    assert ddk_rate([seg(0, 100, VOWEL)]) is None  # no VOT
    assert ddk_rate([seg(0, 100, VOT)]) is None  # no vowel
    assert ddk_rate([]) is None


def test_ddk_rate_translation_and_dilation(rng):
    base = make_trial(60, 140, 80, 8)
    r0 = ddk_rate(base)
    shifted = [seg(s.onset_ms + 330, s.offset_ms + 330, s.label) for s in base]
    assert ddk_rate(shifted).rate_per_s == pytest.approx(r0.rate_per_s)
    dilated = [seg(2 * s.onset_ms, 2 * s.offset_ms, s.label) for s in base]
    assert ddk_rate(dilated).rate_per_s == pytest.approx(r0.rate_per_s / 2)


def test_ddk_rate_matches_recount_oracle(rng):
    for _ in range(400):
        count = int(rng.integers(1, 12))
        segments = []
        t = int(rng.integers(0, 500))
        for _ in range(count):
            vot = int(rng.integers(5, 120))
            vowel = int(rng.integers(20, 400))
            segments.append(seg(t, t + vot, VOT))
            t += vot
            segments.append(seg(t, t + vowel, VOWEL))
            t += vowel + int(rng.integers(0, 200))
        result = ddk_rate(segments)

        # independent recount
        vots = [s for s in segments if s.label == VOT]
        vowels = [s for s in segments if s.label == VOWEL]
        mean_vowel = sum(v.duration_ms for v in vowels) / len(vowels)
        n = len(vots) + sum(1 for v in vowels if v.duration_ms > 2 * mean_vowel)
        artic = (vowels[-1].offset_ms - vots[0].onset_ms) / 1000.0
        assert result.count.corrected_count == n
        assert result.rate_per_s == pytest.approx(n / artic)


def test_vot_only_rate_uniform():
    vots = [seg(i * 500, i * 500 + 60, VOT) for i in range(10)]
    result = ddk_rate_vot_only(vots, (0.0, 5.0))
    assert result.count.corrected_count == 10
    assert result.rate_per_s == pytest.approx(2.0)


def test_vot_only_rate_long_gap_correction():
    # nine uniform 0.5 s onsets, then one gap of 1.2 s
    vots = [seg(i * 500, i * 500 + 100, VOT) for i in range(9)]
    last = vots[-1].offset_ms + 1200
    vots.append(seg(last, last + 100, VOT))
    result = ddk_rate_vot_only(vots, (0.0, 6.0))
    assert result.count.raw_count == 10
    assert result.count.corrected_count == 11


def test_vot_only_rate_undefined():
    assert ddk_rate_vot_only([seg(0, 50, VOT)], (0.0, 5.0)) is None


def test_vot_only_matches_recount_oracle(rng):
    for _ in range(400):
        n = int(rng.integers(2, 15))
        vots = []
        t = 0
        for _ in range(n):
            d = int(rng.integers(10, 100))
            vots.append(seg(t, t + d, VOT))
            t += d + int(rng.integers(10, 900))
        result = ddk_rate_vot_only(vots, (0.0, t / 1000.0))
        gaps = [b.onset_ms - a.offset_ms for a, b in zip(vots, vots[1:])]
        mean_gap = sum(gaps) / len(gaps)
        expected = n + sum(1 for g in gaps if g > 2 * mean_gap)
        assert result.count.corrected_count == expected


def test_match_identical_sequences():
    segments = make_trial(50, 150, 100, 5)
    m = match_segments(segments, segments)
    assert len(m.pairs) == 10
    assert not m.misses and not m.false_alarms
    assert all(p == t for p, t in m.pairs)


def test_match_empty_predictions():
    target = make_trial(50, 150, 100, 3)
    m = match_segments([], target)
    assert len(m.misses) == 6
    assert not m.pairs


def test_match_prefers_closest_boundaries():
    pred = [seg(0, 50, VOT)]
    target = [seg(0, 48, VOT), seg(100, 150, VOT)]
    m = match_segments(pred, target)
    assert m.pairs == [(pred[0], target[0])]
    assert m.misses == [target[1]]


def test_match_requires_overlap():
    pred = [seg(0, 10, VOT)]
    target = [seg(10, 20, VOT)]
    m = match_segments(pred, target)
    assert not m.pairs
    assert m.false_alarms == pred
    assert m.misses == target


def test_match_one_to_one(rng):
    # two predictions near one target: only one pair forms
    pred = [seg(0, 50, VOT), seg(2, 52, VOT)]
    target = [seg(0, 50, VOT)]
    m = match_segments(pred, target)
    assert len(m.pairs) == 1
    assert len(m.false_alarms) == 1


def test_match_ignores_other_segments():
    pred = [seg(0, 100, OTHER)]
    target = [seg(0, 100, OTHER)]
    m = match_segments(pred, target)
    assert not m.pairs and not m.misses and not m.false_alarms


def match_oracle(pred, target):
    """Plain re-statement of the matching definition."""
    taken = set()
    pairs, fas = [], []
    for p in pred:
        if p.label == OTHER:
            continue
        candidates = []
        for j, t in enumerate(target):
            if t.label != p.label or j in taken:
                continue
            dist = abs(p.onset_ms - t.onset_ms) + abs(p.offset_ms - t.offset_ms)
            ov = max(0, min(p.offset_ms, t.offset_ms) - max(p.onset_ms, t.onset_ms))
            candidates.append((dist, -ov, j))
        if candidates:
            dist, neg_ov, j = min(candidates)
            if -neg_ov > 0:
                taken.add(j)
                pairs.append((p, target[j]))
                continue
        fas.append(p)
    misses = [t for j, t in enumerate(target) if t.label != OTHER and j not in taken]
    return pairs, misses, fas


def random_segments(rng, jitter=0):
    out = []
    t = int(rng.integers(0, 100))
    for _ in range(int(rng.integers(1, 10))):
        label = VOT if rng.random() < 0.5 else VOWEL
        d = int(rng.integers(10, 200))
        onset = max(0, t + int(rng.integers(-jitter, jitter + 1)))
        out.append(seg(onset, onset + d, label))
        t = onset + d + int(rng.integers(1, 150))
    return out


def test_match_against_oracle_randomized(rng):
    for _ in range(300):
        target = random_segments(rng)
        pred = [seg(max(0, s.onset_ms + int(rng.integers(-20, 21))),
                    s.offset_ms + int(rng.integers(-20, 21)), s.label)
                for s in target if rng.random() < 0.9 and s.duration_ms > 45]
        m = match_segments(pred, target)
        pairs, misses, fas = match_oracle(pred, target)
        assert m.pairs == pairs and m.misses == misses and m.false_alarms == fas


def test_f1_perfect_and_arithmetic():
    segments = make_trial(50, 150, 100, 4)
    scores = f1_scores(match_segments(segments, segments))
    assert scores[VOT].f1 == 1.0 and scores[VOWEL].f1 == 1.0

    m = MatchedPairs()
    m.pairs = [(seg(0, 10, VOT), seg(0, 10, VOT))] * 8
    m.false_alarms = [seg(0, 10, VOT)] * 2
    m.misses = [seg(0, 10, VOT)] * 2
    sc = f1_scores(m)[VOT]
    assert sc.precision == pytest.approx(0.8)
    assert sc.recall == pytest.approx(0.8)
    assert sc.f1 == pytest.approx(0.8)


def test_f1_degenerate():
    scores = f1_scores(match_segments([], []))
    assert scores[VOT].f1 == 0.0
    assert scores[VOT].degenerate


def test_trim_outliers_explicit_percentiles():
    values = list(np.arange(100, dtype=float) * 3.7 + 1.0)
    kept = trim_outliers(values)
    assert kept == list(range(2, 95))
    assert trim_outliers([5.0] * 20) == list(range(20))
    assert trim_outliers([]) == []


def test_trim_outliers_matches_percentile_oracle(rng):
    for _ in range(200):
        values = list(rng.standard_normal(int(rng.integers(1, 120))) * 50)
        kept = trim_outliers(values)
        lo = np.percentile(values, 2, method="linear")
        hi = np.percentile(values, 95, method="linear")
        expected = [i for i, v in enumerate(values) if lo <= v <= hi]
        assert kept == expected
        # strict-interior values always survive
        for i, v in enumerate(values):
            if lo < v < hi:
                assert i in kept


def test_duration_stats_identity_and_shift():
    target = make_trial(50, 150, 100, 6)
    # durations must vary for a defined correlation
    target = [seg(s.onset_ms, s.offset_ms + (i % 3) * 7, s.label) for i, s in enumerate(target)]
    m = match_segments(target, target)
    stats = duration_stats(m)
    assert stats[VOT][0] == pytest.approx(1.0)
    assert stats[VOT][1] == 0.0

    shifted = [seg(s.onset_ms, s.offset_ms + 5, s.label) for s in target]
    m = match_segments(shifted, target)
    stats = duration_stats(m)
    assert stats[VOT][0] == pytest.approx(1.0)
    assert stats[VOT][1] == pytest.approx(0.005)
    assert stats[VOWEL][1] == pytest.approx(0.005)


def test_duration_stats_needs_three_pairs():
    target = make_trial(50, 150, 100, 2)
    m = match_segments(target, target)
    assert duration_stats(m)[VOT] is None


def test_pearson_matches_longdouble_oracle(rng):
    m = MatchedPairs()
    for _ in range(60):
        d_t = int(rng.integers(30, 200))
        d_p = d_t + int(rng.integers(-10, 11))
        t0 = int(rng.integers(0, 10_000))
        m.pairs.append((seg(t0, t0 + d_p, VOT), seg(t0, t0 + d_t, VOT)))
    stats = duration_stats(m)

    pred = np.array([p.duration_ms for p, _ in m.pairs], dtype=np.longdouble)
    tgt = np.array([t.duration_ms for _, t in m.pairs], dtype=np.longdouble)
    keep = sorted(set(trim_outliers(list(map(float, pred)))) & set(trim_outliers(list(map(float, tgt)))))
    pred, tgt = pred[keep], tgt[keep]
    pc = pred - pred.mean()
    tc = tgt - tgt.mean()
    ref_r = float((pc * tc).sum() / np.sqrt((pc * pc).sum() * (tc * tc).sum()))
    assert abs(stats[VOT][0] - ref_r) < 1e-12
    ref_mae = float(np.abs(pred - tgt).mean()) / 1000.0
    assert abs(stats[VOT][1] - ref_mae) < 1e-12


def test_boundary_mad_examples():
    m = MatchedPairs()
    m.pairs = [(seg(10, 60, VOT), seg(12, 60, VOT)),
               (seg(100, 160, VOT), seg(104, 160, VOT))]
    mad_on, _, _ = boundary_mad(m)
    assert mad_on == pytest.approx(3.0)

    segments = make_trial(40, 120, 90, 3)
    mads = boundary_mad(match_segments(segments, segments))
    assert mads == (0.0, 0.0, 0.0)


def test_boundary_mad_empty_class():
    m = MatchedPairs()
    m.pairs = [(seg(0, 50, VOT), seg(0, 50, VOT))]
    mad_on, mad_mid, mad_off = boundary_mad(m)
    assert mad_on == 0.0 and mad_mid == 0.0 and mad_off is None


def test_boundary_mad_matches_recompute(rng):
    for _ in range(200):
        target = random_segments(rng)
        pred = []
        for s in target:
            onset = max(0, s.onset_ms + int(rng.integers(-5, 6)))
            offset = max(onset + 1, s.offset_ms + int(rng.integers(-5, 6)))
            pred.append(seg(onset, offset, s.label))
        m = match_segments(pred, target)
        mad_on, mad_mid, mad_off = boundary_mad(m)
        vot_on = [abs(p.onset_ms - t.onset_ms) for p, t in m.pairs if p.label == VOT]
        mid = ([abs(p.offset_ms - t.offset_ms) for p, t in m.pairs if p.label == VOT]
               + [abs(p.onset_ms - t.onset_ms) for p, t in m.pairs if p.label == VOWEL])
        v_off = [abs(p.offset_ms - t.offset_ms) for p, t in m.pairs if p.label == VOWEL]
        for got, want in ((mad_on, vot_on), (mad_mid, mid), (mad_off, v_off)):
            if want:
                assert got == pytest.approx(np.mean(want), abs=1e-12)
            else:
                assert got is None


def test_evaluate_pairs_identity_report(rng):
    trials = []
    for k in range(4):
        target = make_trial(40 + 3 * k, 120 + 10 * k, 80 + 15 * k, 5 + k)
        trials.append((f"t{k}", target, target))
    report = evaluate_pairs(trials)
    assert report.scores[VOT].f1 == 1.0
    assert report.scores[VOWEL].f1 == 1.0
    assert report.vot_onset_mad_ms == 0.0
    assert report.vowel_offset_mad_ms == 0.0
    assert report.durations[VOT][0] == pytest.approx(1.0)
    assert report.rate_pearson_r == pytest.approx(1.0)
    assert report.rate_mae == 0.0
    assert len(report.format_table().splitlines()) >= 10
