"""Labeled synthetic syllable-train generator.

Each trial is a sequence of syllables (noise burst + harmonic vowel)
separated by near-silent gaps on a -40 dBFS noise floor, with exact 1 ms
ground-truth segments by construction. Trials stand in for clinical
recordings so training and evaluation can run end to end at desk scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import MODEL_RATE_HZ, SAMPLES_PER_MS, Waveform, read_wav, write_wav
from .errors import ConfigError, DataError
from .postproc import OTHER, VOT, VOWEL, Segment, read_csv_rows, read_segments_csv, write_segments_csv

MANIFEST_HEADER = ["trial_id", "wav_path", "labels_path", "split"]
NOISE_FLOOR_RMS = 0.01  # -40 dBFS


@dataclass(frozen=True)
class TrialSpec:
    syllable_count: int = 9
    vot_ms: tuple[int, int] = (20, 100)
    vowel_ms: tuple[int, int] = (80, 200)
    gap_ms: tuple[int, int] = (10, 150)
    f0_hz: tuple[float, float] = (90.0, 180.0)
    lead_ms: tuple[int, int] = (100, 300)
    seed: int = 0

    def __post_init__(self):
        for name in ("vot_ms", "vowel_ms", "gap_ms", "lead_ms"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"{name} range must be positive and ordered, got ({lo}, {hi})")
        if self.syllable_count < 1:
            raise ValueError("syllable_count must be >= 1")


def _vot_burst(n: int, rng: np.random.Generator) -> np.ndarray:
    burst = rng.standard_normal(n)
    rise = min(3 * SAMPLES_PER_MS, n)
    envelope = np.ones(n)
    envelope[:rise] = np.linspace(0.0, 1.0, rise, endpoint=False)
    tau = max(n / 3.0, 1.0)
    envelope[rise:] *= np.exp(-(np.arange(n - rise)) / tau)
    amp = rng.uniform(0.3, 0.5)
    out = burst * envelope
    return out * (amp / max(np.max(np.abs(out)), 1e-9))


def _vowel(n: int, f0: float, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n) / MODEL_RATE_HZ
    out = np.zeros(n)
    k = 1
    while k * f0 < 3800.0:
        f = k * f0
        # 1/k rolloff keeps the fundamental dominant; two resonance bumps
        # give the open-vowel spectral shape.
        amp = (1.0 / k) * (1.0 + 1.5 * np.exp(-((f - 700.0) / 180.0) ** 2)
                           + 1.0 * np.exp(-((f - 1200.0) / 220.0) ** 2))
        out += amp * np.sin(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
        k += 1
    ramp = min(10 * SAMPLES_PER_MS, n // 2)
    if ramp:
        win = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, ramp))
        out[:ramp] *= win
        out[-ramp:] *= win[::-1]
    amp = rng.uniform(0.55, 0.75)
    return out * (amp / max(np.max(np.abs(out)), 1e-9))


def generate_trial(spec: TrialSpec) -> tuple[Waveform, list[Segment]]:
    """One synthetic trial at 16 kHz plus its exact ground-truth segments.

    Segment boundaries land on whole milliseconds by construction. Within a
    trial the inter-syllable gap is constant (speakers keep a steady pace),
    which also spreads true rates across trials.
    """
    rng = np.random.default_rng(spec.seed)
    f0 = rng.uniform(*spec.f0_hz)
    gap = int(rng.integers(spec.gap_ms[0], spec.gap_ms[1] + 1))
    lead = int(rng.integers(spec.lead_ms[0], spec.lead_ms[1] + 1))
    tail = int(rng.integers(spec.lead_ms[0], spec.lead_ms[1] + 1))

    segments: list[Segment] = []
    pieces: list[np.ndarray] = []
    cursor = 0

    def emit(duration_ms: int, label: int, samples: np.ndarray | None):
        nonlocal cursor
        n = duration_ms * SAMPLES_PER_MS
        pieces.append(samples if samples is not None else np.zeros(n))
        segments.append(Segment(cursor, cursor + duration_ms, label))
        cursor += duration_ms

    emit(lead, OTHER, None)
    for syllable in range(spec.syllable_count):
        vot = int(rng.integers(spec.vot_ms[0], spec.vot_ms[1] + 1))
        vowel = int(rng.integers(spec.vowel_ms[0], spec.vowel_ms[1] + 1))
        emit(vot, VOT, _vot_burst(vot * SAMPLES_PER_MS, rng))
        emit(vowel, VOWEL, _vowel(vowel * SAMPLES_PER_MS, f0, rng))
        if syllable < spec.syllable_count - 1:
            emit(gap, OTHER, None)
    emit(tail, OTHER, None)

    signal = np.concatenate(pieces)
    signal += NOISE_FLOOR_RMS * rng.standard_normal(len(signal))
    peak = np.max(np.abs(signal))
    if peak > 0.9:
        signal *= 0.9 / peak
    return Waveform(signal, MODEL_RATE_HZ), segments


def split_counts(n_trials: int, split_ratios: tuple[float, ...]) -> list[int]:
    """Trials per split by largest remainder: each split gets the floor of
    its share, and the trials left over go one each to the largest
    fractional parts, ties to the earlier split. So the counts sum to
    n_trials and a 0 ratio gets no trial."""
    quotas = [n_trials * r for r in split_ratios]
    counts = [math.floor(q) for q in quotas]
    for i in sorted(range(len(quotas)), key=lambda i: counts[i] - quotas[i])[:n_trials - sum(counts)]:
        counts[i] += 1
    return counts


def generate_corpus(n_trials: int, split_ratios: tuple[float, float, float], seed: int,
                    out_dir, syllable_range: tuple[int, int] = (7, 11)) -> Path:
    """Write n_trials wav+csv pairs plus a manifest; returns the manifest path.

    Splits are assigned by position after a seeded shuffle so they are
    disjoint and reproducible. A trial count below 1, split ratios that are
    negative, non-finite or do not sum to 1, and a syllable range outside
    1 <= min <= max raise ConfigError before anything is written.
    """
    if n_trials < 1:
        raise ConfigError(f"trial count must be >= 1, got {n_trials}")
    if not all(0.0 <= r < math.inf for r in split_ratios):
        raise ConfigError(f"split ratios must be finite and >= 0, got {split_ratios}")
    if abs(sum(split_ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {split_ratios}")
    if not 1 <= syllable_range[0] <= syllable_range[1]:
        raise ConfigError(f"syllable range must have 1 <= min <= max, got {syllable_range}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    counts = split_counts(n_trials, split_ratios)
    splits = [name for name, count in zip(("train", "val", "test"), counts) for _ in range(count)]
    order = rng.permutation(n_trials)

    rows = []
    for i in range(n_trials):
        count = int(rng.integers(syllable_range[0], syllable_range[1] + 1))
        trial_seed = int(rng.integers(2 ** 63))
        wave, segments = generate_trial(TrialSpec(syllable_count=count, seed=trial_seed))
        trial_id = f"trial_{i:04d}"
        wav_path = out_dir / f"{trial_id}.wav"
        csv_path = out_dir / f"{trial_id}.csv"
        write_wav(wav_path, wave)
        write_segments_csv(csv_path, segments)
        rows.append([trial_id, wav_path.name, csv_path.name, splits[order[i]]])

    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)
    return manifest


@dataclass
class Trial:
    trial_id: str
    wave: Waveform
    segments: list[Segment]


def load_manifest(manifest_path) -> dict[str, list[Trial]]:
    """Load a corpus manifest into per-split trial lists (paths are relative
    to the manifest's directory)."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise DataError(f"manifest not found: {manifest_path}")
    base = manifest_path.parent
    out: dict[str, list[Trial]] = {"train": [], "val": [], "test": []}
    for lineno, row in read_csv_rows(manifest_path, MANIFEST_HEADER):
        if len(row) != 4 or row[3] not in out:
            raise DataError(f"{manifest_path}:{lineno}: bad manifest row {row!r}")
        trial_id, wav_rel, labels_rel, split = row
        wave = read_wav(base / wav_rel)
        segments = read_segments_csv(base / labels_rel)
        out[split].append(Trial(trial_id, wave, segments))
    return out
