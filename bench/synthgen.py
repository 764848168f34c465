"""Input generator for the ddkseg benchmark (numpy only, imports nothing from ddkseg).

A trial is a train of syllables (noise burst = VOT, harmonic vowel) on a
quiet noise floor, with its truth on whole milliseconds by construction.
Every trial has a fixed duration from the plan, so the amount of work in a
workload does not depend on the seed; the seed only draws the content.

Conditions: "clean"; "noise5" (low-passed noise at 5 dB SNR);
"bandreject" (a 200-1000 Hz wide band removed); "fast" (zero gaps and
short segments, the fastest tempo a speaker reaches).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

CONDITIONS = ("clean", "noise5", "bandreject", "fast")
VOT, VOWEL = "vot", "vowel"
NOISE_FLOOR_RMS = 0.01
# The PCM sub-format GUID that follows the format tag in a WAVE_FORMAT_EXTENSIBLE header.
KSDATAFORMAT_SUBTYPE_PCM = bytes.fromhex("0100000000001000800000aa00389b71")
WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def _ms_to_samples(ms: int, rate: int) -> int:
    return int(round(ms * rate / 1000))


def _burst(n: int, rate: int, rng: np.random.Generator) -> np.ndarray:
    rise = min(_ms_to_samples(3, rate), n)
    env = np.ones(n)
    env[:rise] = np.linspace(0.0, 1.0, rise, endpoint=False)
    env[rise:] = np.exp(-np.arange(n - rise) / max(n / 3.0, 1.0))
    out = rng.standard_normal(n) * env
    return out * (rng.uniform(0.3, 0.5) / max(np.abs(out).max(), 1e-9))


def _vowel(n: int, rate: int, f0: float, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n) / rate
    out = np.zeros(n)
    k = 1
    while k * f0 < 3800.0:
        f = k * f0
        amp = (1.0 / k) * (1.0 + 1.5 * np.exp(-((f - 650.0) / 200.0) ** 2)
                           + np.exp(-((f - 1150.0) / 250.0) ** 2))
        out += amp * np.sin(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
        k += 1
    ramp = min(_ms_to_samples(8, rate), n // 2)
    win = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, ramp))
    out[:ramp] *= win
    out[n - ramp:] *= win[::-1]
    return out * (rng.uniform(0.55, 0.75) / max(np.abs(out).max(), 1e-9))


def _band_filter(x: np.ndarray, rate: int, keep) -> np.ndarray:
    """Zero-phase FFT filter: keep(freqs) -> bool mask of bins to keep."""
    spec = np.fft.rfft(x)
    spec[~keep(np.fft.rfftfreq(len(x), 1.0 / rate))] = 0.0
    return np.fft.irfft(spec, n=len(x))


def make_trial(duration_ms: int, condition: str, rate: int, rng: np.random.Generator):
    """One mono trial of exactly duration_ms: (samples float64, segments).

    Segments are (onset_ms, offset_ms, label) for VOT and vowel only. Vowel
    lengths stay within [100, 180] ms (or [100, 130] ms at fast tempo), so
    no vowel is longer than twice a trial's mean and a syllable count
    needs no vowel-split correction.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    fast = condition == "fast"
    vot_ms, vowel_ms = ((12, 30), (100, 130)) if fast else ((20, 60), (100, 180))
    gap = 0 if fast else int(rng.integers(20, 151))
    lead = int(rng.integers(60, 201))
    min_tail = 60
    f0 = rng.uniform(90.0, 200.0)

    x = np.zeros(_ms_to_samples(duration_ms, rate))
    segments = []
    cursor = lead
    while True:
        vot = int(rng.integers(vot_ms[0], vot_ms[1] + 1))
        vowel = int(rng.integers(vowel_ms[0], vowel_ms[1] + 1))
        start = cursor + (gap if segments else 0)
        if start + vot + vowel + min_tail > duration_ms:
            break
        for label, lo, hi in ((VOT, start, start + vot), (VOWEL, start + vot, start + vot + vowel)):
            a, b = _ms_to_samples(lo, rate), _ms_to_samples(hi, rate)
            x[a:b] = _burst(b - a, rate, rng) if label == VOT else _vowel(b - a, rate, f0, rng)
            segments.append((lo, hi, label))
        cursor = start + vot + vowel
    if not segments:
        raise ValueError(f"{duration_ms} ms is too short for one syllable")

    if condition == "noise5":
        noise = _band_filter(rng.standard_normal(len(x)), rate, lambda f: f < 500.0)
        gain = np.sqrt(np.mean(x * x)) / (np.sqrt(np.mean(noise * noise)) * 10.0 ** (5.0 / 20.0))
        x = x + gain * noise
    elif condition == "bandreject":
        centre, width = rng.uniform(500.0, 4000.0), rng.uniform(200.0, 1000.0)
        x = _band_filter(x, rate, lambda f: np.abs(f - centre) > width / 2.0)
    x = x + NOISE_FLOOR_RMS * rng.standard_normal(len(x))
    x *= 0.9 / max(np.abs(x).max(), 1e-9)
    return x, segments


def true_rate(segments) -> float:
    """Syllables per second from the first VOT onset to the last vowel offset."""
    vots = [s for s in segments if s[2] == VOT]
    vowels = [s for s in segments if s[2] == VOWEL]
    return len(vots) / ((vowels[-1][1] - vots[0][0]) / 1000.0)


def _to_int16(channels: np.ndarray) -> bytes:
    """(frames, channels) float in [-1, 1] -> interleaved little-endian int16."""
    return np.clip(np.round(channels * 32767.0), -32768, 32767).astype("<i2").tobytes()


def write_wav(path, channels: np.ndarray, rate: int, extensible: bool = False) -> None:
    """16-bit PCM WAV; extensible=True writes a WAVE_FORMAT_EXTENSIBLE header."""
    if channels.ndim == 1:
        channels = channels[:, None]
    n_ch = channels.shape[1]
    payload = _to_int16(channels)
    block = 2 * n_ch
    if extensible:
        mask = 0x4 if n_ch == 1 else 0x3
        fmt = struct.pack("<HHIIHHHHI16s", WAVE_FORMAT_EXTENSIBLE, n_ch, rate, rate * block, block, 16,
                          22, 16, mask, KSDATAFORMAT_SUBTYPE_PCM)
    else:
        fmt = struct.pack("<HHIIHH", WAVE_FORMAT_PCM, n_ch, rate, rate * block, block, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        body += b"\x00"
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def write_segments(path, segments) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["onset_ms", "offset_ms", "label"])
        writer.writerows(segments)


def _trial_rng(*key) -> np.random.Generator:
    digest = hashlib.sha256(json.dumps(key).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def write_session_set(out_dir: Path, plan: dict, seed: int) -> dict:
    """Write every session of a segment plan; returns the truth record.

    plan: {"rate": Hz, "channels": 1|2, "sessions": [{"trials": [[ms, condition], ...],
    "extensible": bool}, ...]}.
    """
    rate, n_ch = plan["rate"], plan["channels"]
    truth_dir = out_dir / "truth"
    truth_dir.mkdir(parents=True)
    sessions = []
    for s_idx, session in enumerate(plan["sessions"]):
        s_dir = out_dir / f"session{s_idx:02d}"
        s_dir.mkdir()
        trials = []
        for t_idx, (duration_ms, condition) in enumerate(session["trials"]):
            rng = _trial_rng(seed, s_idx, t_idx, duration_ms, condition, rate, n_ch)
            mono, segments = make_trial(duration_ms, condition, rate, rng)
            if n_ch == 2:
                gains = rng.uniform(0.8, 1.0, size=2)
                floor = NOISE_FLOOR_RMS * 0.2 * rng.standard_normal((len(mono), 2))
                channels = np.clip(mono[:, None] * gains[None, :] + floor, -1.0, 1.0)
            else:
                channels = mono[:, None]
            name = f"s{s_idx:02d}_t{t_idx:02d}"
            write_wav(s_dir / f"{name}.wav", channels, rate, extensible=session.get("extensible", False))
            write_segments(truth_dir / f"{name}.csv", segments)
            trials.append({"name": name, "duration_ms": duration_ms, "condition": condition,
                           "segments": segments, "rate": true_rate(segments)})
        sessions.append({"dir": s_dir.name, "audio_s": sum(t["duration_ms"] for t in trials) / 1000.0,
                         "trials": trials})
    return {"rate": rate, "channels": n_ch, "sessions": sessions}


def write_corpus(out_dir: Path, plan: dict, seed: int) -> dict:
    """Write a training corpus with a ddkseg manifest; returns its truth record.

    plan: {"train": [[ms, condition], ...], "val": [[ms, condition], ...]}; 16 kHz mono.
    """
    rows, record = [], {"train": [], "val": []}
    for split in ("train", "val"):
        for t_idx, (duration_ms, condition) in enumerate(plan[split]):
            rng = _trial_rng(seed, split, t_idx, duration_ms, condition)
            mono, segments = make_trial(duration_ms, condition, 16000, rng)
            name = f"{split}_{t_idx:03d}"
            write_wav(out_dir / f"{name}.wav", mono[:, None], 16000)
            write_segments(out_dir / f"{name}.csv", segments)
            rows.append([name, f"{name}.wav", f"{name}.csv", split])
            record[split].append({"name": name, "duration_ms": duration_ms, "segments": segments})
    with open(out_dir / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial_id", "wav_path", "labels_path", "split"])
        writer.writerows(rows)
    return record


def cache_key(kind: str, plan: dict, seed: int) -> str:
    """Changes whenever this generator's source, the plan or the seed changes."""
    h = hashlib.sha256(Path(__file__).read_bytes())
    h.update(json.dumps([kind, plan, seed], sort_keys=True).encode())
    return h.hexdigest()[:16]


def cached_inputs(cache_root: Path, name: str, kind: str, plan: dict, seed: int) -> tuple[Path, dict]:
    """Generate (or reuse) the inputs of one workload and seed; returns (dir, truth record)."""
    final = cache_root / f"{name}-s{seed}-{cache_key(kind, plan, seed)}"
    record_path = final / "truth.json"
    if not record_path.is_file():
        cache_root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=cache_root, prefix=".tmp-"))
        try:
            writer = write_session_set if kind == "sessions" else write_corpus
            record = writer(tmp, plan, seed)
            (tmp / "truth.json").write_text(json.dumps(record))
            os.replace(tmp, final)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return final, json.loads(record_path.read_text())


if __name__ == "__main__":
    # python3 synthgen.py CACHE_DIR NAME KIND PLAN_JSON SEED: fill the cache for one workload and seed.
    cached_inputs(Path(sys.argv[1]), sys.argv[2], sys.argv[3], json.loads(sys.argv[4]), int(sys.argv[5]))
