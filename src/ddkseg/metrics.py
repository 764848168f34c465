"""Syllable-rate computation and the segment-level evaluation suite.

Rates and articulation times are reported in seconds; segment boundaries
stay in milliseconds. Degenerate inputs (no syllables, too few matched
pairs) yield None rather than a fake zero so downstream consumers can tell
"bad score" from "no evidence".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .postproc import VOT, VOWEL, Segment


@dataclass
class SyllableCount:
    raw_count: int
    corrected_count: int
    corrections: list[tuple[int, str]] = field(default_factory=list)  # (segment index, reason)


@dataclass
class RateResult:
    rate_per_s: float
    count: SyllableCount
    articulation_time_s: float


@dataclass
class MatchedPairs:
    pairs: list[tuple[Segment, Segment]] = field(default_factory=list)  # (predicted, target)
    misses: list[Segment] = field(default_factory=list)
    false_alarms: list[Segment] = field(default_factory=list)


@dataclass
class ClassScore:
    precision: float
    recall: float
    f1: float
    matched: int
    false_alarms: int
    misses: int
    degenerate: bool = False


def ddk_rate(segments: list[Segment]) -> RateResult | None:
    """Syllables per second over the articulation window.

    A syllable is one VOT segment; articulation time runs from the first
    VOT onset to the last vowel offset. Each vowel longer than twice the
    trial's mean vowel duration adds one syllable (two productions merged
    into one predicted vowel).
    """
    vots = [(i, s) for i, s in enumerate(segments) if s.label == VOT]
    vowels = [(i, s) for i, s in enumerate(segments) if s.label == VOWEL]
    if not vots or not vowels:
        return None
    articulation_s = (vowels[-1][1].offset_ms - vots[0][1].onset_ms) / 1000.0
    if articulation_s <= 0:
        return None
    mean_vowel = sum(s.duration_ms for _, s in vowels) / len(vowels)
    corrections = [(i, "vowel-split") for i, s in vowels if s.duration_ms > 2.0 * mean_vowel]
    count = SyllableCount(len(vots), len(vots) + len(corrections), corrections)
    return RateResult(count.corrected_count / articulation_s, count, articulation_s)


def ddk_rate_vot_only(vot_segments: list[Segment], window_s: tuple[float, float]) -> RateResult | None:
    """Rate from VOT segments alone, over an externally supplied window.

    Counts one syllable per VOT plus one for every inter-VOT gap longer
    than twice the mean gap (a skipped detection). Needs >= 2 VOTs.
    """
    vots = [s for s in vot_segments if s.label == VOT]
    if len(vots) < 2:
        return None
    start_s, end_s = window_s
    if end_s <= start_s:
        return None
    gaps = [b.onset_ms - a.offset_ms for a, b in zip(vots, vots[1:])]
    mean_gap = sum(gaps) / len(gaps)
    corrections = [(i + 1, "inter-vot-gap") for i, g in enumerate(gaps) if g > 2.0 * mean_gap]
    count = SyllableCount(len(vots), len(vots) + len(corrections), corrections)
    return RateResult(count.corrected_count / (end_s - start_s), count, end_s - start_s)


def _overlap_ms(a: Segment, b: Segment) -> int:
    return max(0, min(a.offset_ms, b.offset_ms) - max(a.onset_ms, b.onset_ms))


def match_segments(predicted: list[Segment], target: list[Segment]) -> MatchedPairs:
    """One-to-one assignment of predicted to target segments per label.

    OTHER segments do not participate. Predictions are visited in temporal
    order; each takes the free same-label target with the smallest
    |onset delta| + |offset delta| (ties toward larger overlap), and the
    pair is kept only if the two actually overlap in time.
    """
    result = MatchedPairs()
    taken: set[int] = set()
    targets = [(j, t) for j, t in enumerate(target) if t.label != 0]
    for pred in predicted:
        if pred.label == 0:
            continue
        best = None
        for j, tgt in targets:
            if j in taken or tgt.label != pred.label:
                continue
            dist = abs(pred.onset_ms - tgt.onset_ms) + abs(pred.offset_ms - tgt.offset_ms)
            key = (dist, -_overlap_ms(pred, tgt))
            if best is None or key < best[0]:
                best = (key, j, tgt)
        if best is not None and _overlap_ms(pred, best[2]) > 0:
            taken.add(best[1])
            result.pairs.append((pred, best[2]))
        else:
            result.false_alarms.append(pred)
    result.misses = [t for j, t in targets if j not in taken]
    return result


def f1_scores(matches: MatchedPairs) -> dict[int, ClassScore]:
    """Per-label precision/recall/F1 over a MatchedPairs assignment."""
    out = {}
    for label in (VOT, VOWEL):
        matched = sum(1 for p, _ in matches.pairs if p.label == label)
        fa = sum(1 for s in matches.false_alarms if s.label == label)
        miss = sum(1 for s in matches.misses if s.label == label)
        precision = matched / (matched + fa) if matched + fa else 0.0
        recall = matched / (matched + miss) if matched + miss else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[label] = ClassScore(precision, recall, f1, matched, fa, miss,
                                degenerate=(matched + fa + miss == 0))
    return out


def trim_outliers(values: list[float]) -> list[int]:
    """Indices of values not strictly above the 95th / below the 2nd percentile."""
    if not values:
        return []
    arr = np.asarray(values, dtype=np.float64)
    lo = np.percentile(arr, 2.0)
    hi = np.percentile(arr, 95.0)
    return [i for i, v in enumerate(arr) if lo <= v <= hi]


def duration_stats(matches: MatchedPairs) -> dict[int, tuple[float, float] | None]:
    """Per-label (Pearson r, MAE in seconds) over outlier-trimmed matched pairs.

    Trimming runs independently on the predicted and target duration lists;
    a pair survives only if both sides survive. Labels with fewer than 3
    surviving pairs map to None.
    """
    out = {}
    for label in (VOT, VOWEL):
        pairs = [(p, t) for p, t in matches.pairs if p.label == label]
        if not pairs:
            out[label] = None
            continue
        pred_d = [p.duration_ms for p, _ in pairs]
        tgt_d = [t.duration_ms for _, t in pairs]
        keep = set(trim_outliers(pred_d)) & set(trim_outliers(tgt_d))
        if len(keep) < 3:
            out[label] = None
            continue
        pd = np.asarray([pred_d[i] for i in sorted(keep)], dtype=np.float64)
        td = np.asarray([tgt_d[i] for i in sorted(keep)], dtype=np.float64)
        if pd.std() == 0.0 or td.std() == 0.0:
            r = 1.0 if np.array_equal(pd, td) else 0.0
        else:
            r = float(np.corrcoef(pd, td)[0, 1])
        mae_s = float(np.mean(np.abs(pd - td))) / 1000.0
        out[label] = (r, mae_s)
    return out


def boundary_mad(matches: MatchedPairs) -> tuple[float | None, float | None, float | None]:
    """Mean absolute boundary deviation in ms for the three boundary classes.

    Classes: VOT onset; VOT offset pooled with vowel onset (the shared
    consonant-vowel joint); vowel offset. Empty classes yield None.
    """
    vot_on, middle, vowel_off = [], [], []
    for p, t in matches.pairs:
        if p.label == VOT:
            vot_on.append(abs(p.onset_ms - t.onset_ms))
            middle.append(abs(p.offset_ms - t.offset_ms))
        elif p.label == VOWEL:
            middle.append(abs(p.onset_ms - t.onset_ms))
            vowel_off.append(abs(p.offset_ms - t.offset_ms))

    def mad(xs):
        return float(np.mean(xs)) if xs else None

    return mad(vot_on), mad(middle), mad(vowel_off)


@dataclass
class EvalReport:
    """Pooled model-versus-annotation statistics over a set of trials."""

    scores: dict[int, ClassScore]
    vot_onset_mad_ms: float | None
    vot_offset_vowel_onset_mad_ms: float | None
    vowel_offset_mad_ms: float | None
    durations: dict[int, tuple[float, float] | None]
    rates: list[tuple[str, float | None, float | None]]  # (trial id, predicted, target)
    rate_pearson_r: float | None
    rate_mae: float | None

    def to_rows(self) -> list[tuple[str, str]]:
        rows = []
        for label, tag in ((VOT, "vot"), (VOWEL, "vowel")):
            sc = self.scores[label]
            rows += [(f"{tag}_precision", _fmt(sc.precision)), (f"{tag}_recall", _fmt(sc.recall)),
                     (f"{tag}_f1", _fmt(sc.f1))]
        rows += [("vot_onset_mad_ms", _fmt(self.vot_onset_mad_ms)),
                 ("vot_offset_vowel_onset_mad_ms", _fmt(self.vot_offset_vowel_onset_mad_ms)),
                 ("vowel_offset_mad_ms", _fmt(self.vowel_offset_mad_ms))]
        for label, tag in ((VOT, "vot"), (VOWEL, "vowel")):
            st = self.durations[label]
            rows += [(f"{tag}_duration_r", _fmt(st[0] if st else None)),
                     (f"{tag}_duration_mae_s", _fmt(st[1] if st else None))]
        rows += [("rate_pearson_r", _fmt(self.rate_pearson_r)), ("rate_mae_syll_per_s", _fmt(self.rate_mae))]
        return rows

    def format_table(self) -> str:
        width = max(len(k) for k, _ in self.to_rows())
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in self.to_rows())


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6g}"


def pearson(xs: np.ndarray, ys: np.ndarray) -> float | None:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 2 or xs.std() == 0.0 or ys.std() == 0.0:
        return None
    return float(np.corrcoef(xs, ys)[0, 1])


def evaluate_pairs(trials: list[tuple[str, list[Segment], list[Segment]]]) -> EvalReport:
    """Aggregate the full suite over (trial_id, predicted, target) triples.

    Matching runs per trial; matched pairs are pooled across trials for F1,
    boundary MAD, and duration statistics. Rates are computed per trial and
    correlated across trials (only trials where both rates exist count).
    """
    pooled = MatchedPairs()
    rates = []
    for trial_id, predicted, target in trials:
        m = match_segments(predicted, target)
        pooled.pairs += m.pairs
        pooled.misses += m.misses
        pooled.false_alarms += m.false_alarms
        pred_rate = ddk_rate(predicted)
        tgt_rate = ddk_rate(target)
        rates.append((trial_id,
                      pred_rate.rate_per_s if pred_rate else None,
                      tgt_rate.rate_per_s if tgt_rate else None))

    both = [(p, t) for _, p, t in rates if p is not None and t is not None]
    rate_r = pearson([p for p, _ in both], [t for _, t in both])
    rate_mae = float(np.mean([abs(p - t) for p, t in both])) if both else None

    mad_on, mad_mid, mad_off = boundary_mad(pooled)
    return EvalReport(
        scores=f1_scores(pooled),
        vot_onset_mad_ms=mad_on,
        vot_offset_vowel_onset_mad_ms=mad_mid,
        vowel_offset_mad_ms=mad_off,
        durations=duration_stats(pooled),
        rates=rates,
        rate_pearson_r=rate_r,
        rate_mae=rate_mae,
    )
