"""Frame labels, segments, and the frame-to-segment conversion rules.

Class indices are fixed package-wide: OTHER=0, VOT=1, VOWEL=2. Argmax ties
therefore resolve toward OTHER first, then VOT.

Conversion walks the runs of equal-labeled frames once, left to right: a
VOT run shorter than 5 ms or a vowel run shorter than 20 ms becomes OTHER
and joins an OTHER before it; and a VOT run that arrives after a VOT and
an OTHER shorter than 20 ms absorbs both into one VOT segment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

OTHER, VOT, VOWEL = 0, 1, 2
LABEL_NAMES = {OTHER: "other", VOT: "vot", VOWEL: "vowel"}
LABEL_IDS = {name: idx for idx, name in LABEL_NAMES.items()}
# Classes the models score per frame: the output layer has one unit each.
N_CLASSES = len(LABEL_NAMES)

MIN_VOT_MS = 5
MIN_VOWEL_MS = 20
MAX_VOT_GAP_MS = 20
_MIN_MS = {VOT: MIN_VOT_MS, VOWEL: MIN_VOWEL_MS}

SEGMENT_CSV_HEADER = ["onset_ms", "offset_ms", "label"]


@dataclass(frozen=True, order=True)
class Segment:
    onset_ms: int
    offset_ms: int
    label: int

    def __post_init__(self):
        if self.label not in LABEL_NAMES:
            raise ValueError(f"unknown label id {self.label}")
        if not 0 <= self.onset_ms < self.offset_ms:
            raise ValueError(f"need 0 <= onset < offset, got [{self.onset_ms}, {self.offset_ms})")

    @property
    def duration_ms(self) -> int:
        return self.offset_ms - self.onset_ms

    @property
    def name(self) -> str:
        return LABEL_NAMES[self.label]


def validate_sequence(segments: list[Segment]) -> None:
    """Check ordering and non-overlap (raises ValueError)."""
    for a, b in zip(segments, segments[1:]):
        if b.onset_ms < a.offset_ms:
            raise ValueError(f"segments overlap or are unordered: {a} then {b}")


def postprocess(frames: np.ndarray) -> list[Segment]:
    """Frame labels -> maximal segments, by the rules of the module docstring."""
    frames = np.asarray(frames)
    starts = np.flatnonzero(np.diff(frames, prepend=-1)).tolist()  # of each run
    out: list[list[int]] = []  # [onset, offset, label] of each segment so far
    for lo, hi in zip(starts, starts[1:] + [len(frames)]):
        label = int(frames[lo])
        if hi - lo < _MIN_MS.get(label, 0):
            label = OTHER
        if out and out[-1][2] == label:
            out[-1][1] = hi
        elif (label == VOT and len(out) > 1 and out[-1][2] == OTHER and out[-2][2] == VOT
              and out[-1][1] - out[-1][0] < MAX_VOT_GAP_MS):
            out.pop()
            out[-1][1] = hi
        else:
            out.append([lo, hi, label])
    return [Segment(*seg) for seg in out]


def speech_segments(segments: list[Segment]) -> list[Segment]:
    """Drop OTHER segments, keeping VOT and vowel intervals only."""
    return [s for s in segments if s.label != OTHER]


def write_segments_csv(path, segments: list[Segment]) -> None:
    """Write the VOT and vowel segments; OTHER is implied by the gaps."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SEGMENT_CSV_HEADER)
        for seg in speech_segments(segments):
            writer.writerow([seg.onset_ms, seg.offset_ms, seg.name])


def read_csv_rows(path, header: list[str]) -> list[tuple[int, list[str]]]:
    """(line number, row) of every non-blank row after the header of a UTF-8
    CSV file; DataError if the file is not UTF-8 CSV or its first row is
    not header."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a UTF-8 CSV file ({exc})") from exc
    if not rows or [h.strip() for h in rows[0]] != header:
        raise DataError(f"{path}: expected header {','.join(header)}")
    return [(lineno, row) for lineno, row in enumerate(rows[1:], start=2) if row]


def read_segments_csv(path) -> list[Segment]:
    """Load a segment CSV, validating the label vocabulary and ordering."""
    path = Path(path)
    segments = []
    for lineno, row in read_csv_rows(path, SEGMENT_CSV_HEADER):
        if len(row) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns")
        try:
            onset, offset = int(row[0]), int(row[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-integer boundary") from exc
        name = row[2].strip().lower()
        if name not in LABEL_IDS:
            raise DataError(f"{path}:{lineno}: unknown label {row[2]!r}")
        try:
            segments.append(Segment(onset, offset, LABEL_IDS[name]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    try:
        validate_sequence(segments)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return segments


def write_textgrid(path, segments: list[Segment], total_ms: int) -> None:
    """Praat-style interval tier export for inspection in annotation tools."""
    total_s = total_ms / 1000.0
    intervals = []
    cursor = 0
    for seg in speech_segments(segments):
        if seg.onset_ms > cursor:
            intervals.append((cursor / 1000.0, seg.onset_ms / 1000.0, ""))
        intervals.append((seg.onset_ms / 1000.0, seg.offset_ms / 1000.0, seg.name))
        cursor = seg.offset_ms
    if cursor < total_ms:
        intervals.append((cursor / 1000.0, total_s, ""))
    lines = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        "xmin = 0",
        f"xmax = {total_s:.3f}",
        "tiers? <exists>",
        "size = 1",
        "item []:",
        "    item [1]:",
        '        class = "IntervalTier"',
        '        name = "segments"',
        "        xmin = 0",
        f"        xmax = {total_s:.3f}",
        f"        intervals: size = {len(intervals)}",
    ]
    for k, (lo, hi, text) in enumerate(intervals, start=1):
        lines += [
            f"        intervals [{k}]:",
            f"            xmin = {lo:.3f}",
            f"            xmax = {hi:.3f}",
            f'            text = "{text}"',
        ]
    Path(path).write_text("\n".join(lines) + "\n")
