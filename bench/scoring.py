"""Truth scorer for the ddkseg benchmark (numpy only, imports nothing from ddkseg).

Segments are (onset_ms, offset_ms, label) tuples with label "vot" or
"vowel". A predicted segment matches a true one of the same label when
their intersection over union exceeds 0.5. Within one trial and label
the true segments are disjoint and so are the predicted ones (checked on
reading), so a segment matches at most one on the other side and the
match count needs no assignment step.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

LABELS = ("vot", "vowel")
HIT_TOLERANCE_MS = 20


def read_segments(path, duration_ms: int) -> list[tuple[int, int, str]]:
    """Parse a segment CSV and check it: raises ValueError unless every row is
    a VOT or vowel segment with integer bounds, the rows are ordered and do
    not overlap, and the last one ends within the recording."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["onset_ms", "offset_ms", "label"]:
        raise ValueError(f"{path}: bad header {rows[:1]}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3 or row[2] not in LABELS:
            raise ValueError(f"{path}:{lineno}: bad row {row}")
        onset, offset = int(row[0]), int(row[1])
        if not 0 <= onset < offset:
            raise ValueError(f"{path}:{lineno}: empty or negative segment {row}")
        if out and onset < out[-1][1]:
            raise ValueError(f"{path}:{lineno}: segment overlaps or precedes the one before")
        out.append((onset, offset, row[2]))
    if out and out[-1][1] > duration_ms:
        raise ValueError(f"{path}: last segment ends at {out[-1][1]} ms, after the recording ({duration_ms} ms)")
    return out


def _iou(a, b) -> float:
    inter = min(a[1], b[1]) - max(a[0], b[0])
    return inter / (max(a[1], b[1]) - min(a[0], b[0])) if inter > 0 else 0.0


def segment_f1(pairs, label: str) -> float:
    """Pooled F1 over (predicted, truth) segment-list pairs for one label."""
    matched = n_pred = n_true = 0
    for pred, truth in pairs:
        p = [s for s in pred if s[2] == label]
        t = [s for s in truth if s[2] == label]
        n_pred += len(p)
        n_true += len(t)
        matched += sum(1 for a in p for b in t if _iou(a, b) > 0.5)
    return 2.0 * matched / (n_pred + n_true) if n_pred + n_true else 1.0


def boundaries(segments) -> list[np.ndarray]:
    """Boundary times (ms) of the three kinds: VOT onset, VOT offset / vowel
    onset, and vowel offset."""
    vot_on = {s[0] for s in segments if s[2] == "vot"}
    mid = {s[1] for s in segments if s[2] == "vot"} | {s[0] for s in segments if s[2] == "vowel"}
    vowel_off = {s[1] for s in segments if s[2] == "vowel"}
    return [np.array(sorted(k), dtype=np.int64) for k in (vot_on, mid, vowel_off)]


def boundary_hits(pairs, tolerance_ms: int = HIT_TOLERANCE_MS) -> float:
    """Share of true boundaries with a predicted boundary of the same kind
    within tolerance_ms."""
    hits = total = 0
    for pred, truth in pairs:
        for p, t in zip(boundaries(pred), boundaries(truth)):
            total += len(t)
            if len(p) and len(t):
                nearest = np.abs(p[None, :] - t[:, None]).min(axis=1)
                hits += int(np.sum(nearest <= tolerance_ms))
    return hits / total if total else 1.0


def majority_frame_share(trials, window_ms: int = 1000) -> float:
    """Frame accuracy of always predicting the most common class, over the
    1 ms frames of each trial's whole windows from its start.

    trials: [{"duration_ms": int, "segments": [(onset_ms, offset_ms, label), ...]}].
    """
    counts = {"other": 0, "vot": 0, "vowel": 0}
    for trial in trials:
        end = trial["duration_ms"] // window_ms * window_ms
        covered = 0
        for onset, offset, label in trial["segments"]:
            n = max(0, min(offset, end) - onset)
            counts[label] += n
            covered += n
        counts["other"] += end - covered
    total = sum(counts.values())
    return max(counts.values()) / total


def pearson(xs, ys) -> float | None:
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    if len(xs) < 3 or xs.std() == 0.0 or ys.std() == 0.0:
        return None
    return float(np.corrcoef(xs, ys)[0, 1])


def read_rates(path) -> dict[str, float | None]:
    """`ddkseg rate` output -> {file stem: syllables per second, or None if undefined}."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return {Path(row["path"]).stem: float(row["rate_syll_per_s"]) if row["status"] == "ok" else None
                for row in reader}


def read_eval(path) -> dict[str, float | None]:
    """`ddkseg eval` report CSV -> {metric: value, or None if blank}."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return {row["metric"]: float(row["value"]) if row["value"] else None for row in reader}
