"""PCM WAV reading/writing, resampling, and analysis-window plumbing.

Audio is carried as float64 mono samples in [-1.0, 1.0). The model rate is
16 kHz: at that rate one 1 ms label frame corresponds to 16 samples, which
is what the rest of the pipeline assumes.

The models train and run on WINDOW_MS (1 s) windows. At inference
cut_windows starts one every HOP_MS (800 ms), and the last one ends at the
signal's last whole frame; frame_owners gives each frame to one window.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import resample_kaiser
from .errors import DataError, InternalError

MODEL_RATE_HZ = 16000
SAMPLES_PER_MS = MODEL_RATE_HZ // 1000
# cut_windows leaves no gap between windows as long as 0 < HOP_MS <= WINDOW_MS.
WINDOW_MS = 1000
HOP_MS = 800
# Largest representable positive amplitude: int16 32767 scaled by 1/32768.
MAX_AMPLITUDE = 32767.0 / 32768.0
# WAVE_FORMAT_EXTENSIBLE's format tag, and the sub-format GUID that makes it integer PCM.
_FORMAT_EXTENSIBLE = 0xFFFE
_SUBTYPE_PCM = bytes.fromhex("0100000000001000800000aa00389b71")
# Data chunk size that a recorder streaming to a pipe writes: read to end of file.
_STREAMED_SIZE = 0xFFFFFFFF


@dataclass(frozen=True)
class Waveform:
    """Mono audio: samples in [-1.0, 1.0) plus their sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if samples.size and (samples.min() < -1.0 or samples.max() >= 1.0):
            raise ValueError("samples outside [-1.0, 1.0)")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_ms(self) -> int:
        return int(round(1000 * len(self.samples) / self.sample_rate_hz))


def read_wav(path) -> Waveform:
    """Read a 16-bit PCM RIFF/WAVE file of any channel count as mono.

    The channels are averaged: their int16 samples are summed in channel
    order into float64, one channel slice at a time, and the sum is
    divided by channels * 32768 once. That is bit-identical to
    frames.mean(axis=1) / 32768, since sums of int16 values are exact in
    float64 and scaling by a power of two commutes with rounding. The fmt
    chunk may be plain PCM or WAVE_FORMAT_EXTENSIBLE with the PCM
    sub-format. A data chunk whose size is 0xFFFFFFFF (a streamed file)
    runs to the end of the file; a trailing partial frame is dropped.
    """
    data = memoryview(Path(path).read_bytes())  # chunks are sliced without copies
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise DataError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset:offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body = data[offset + 8:offset + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise DataError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _FORMAT_EXTENSIBLE and body[24:40] == _SUBTYPE_PCM:
                fmt = (1,) + fmt[1:]
        elif chunk_id == b"data" and chunk_size == _STREAMED_SIZE:
            payload = body
            break
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise DataError(f"{path}: data chunk truncated")
            payload = body
        offset += 8 + chunk_size + (chunk_size & 1)  # chunks are word aligned

    if fmt is None or payload is None:
        raise DataError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _byte_rate, block_align, bits = fmt
    if audio_format != 1 or bits != 16:
        raise DataError(
            f"{path}: only 16-bit integer PCM is supported (format={audio_format}, bits={bits})")
    if channels == 0:
        raise DataError(f"{path}: no channels")
    if sample_rate == 0:
        raise DataError(f"{path}: sample rate is 0 Hz")
    if block_align != 2 * channels:
        raise DataError(f"{path}: block align {block_align} does not match {channels} channel(s) of 16 bits")

    frames = np.frombuffer(payload[:len(payload) - len(payload) % block_align], dtype="<i2").reshape(-1, channels)
    samples = frames[:, 0].astype(np.float64)
    for channel in range(1, channels):
        samples += frames[:, channel]
    samples /= 32768.0 * channels
    return Waveform(samples, int(sample_rate))


def write_wav(path, wave: Waveform) -> None:
    """Write mono 16-bit PCM. read_wav(write_wav(w)) reproduces w's int16 payload."""
    ints = np.clip(np.round(wave.samples * 32768.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, wave.sample_rate_hz,
        wave.sample_rate_hz * 2, 2, 16,
        b"data", len(payload),
    )
    Path(path).write_bytes(header + payload)


def resample(wave: Waveform, target_hz: int) -> Waveform:
    """Resample with the Kaiser-windowed sinc polyphase filter. When the
    rates already match, wave itself is returned, not a copy."""
    if target_hz <= 0:
        raise ValueError(f"target_hz must be positive, got {target_hz}")
    if wave.sample_rate_hz == target_hz:
        return wave
    y = resample_kaiser(wave.samples, wave.sample_rate_hz, target_hz)
    # Sinc ringing can overshoot full scale slightly; keep the invariant.
    np.clip(y, -1.0, MAX_AMPLITUDE, out=y)
    return Waveform(y, target_hz)


def cut_windows(wave: Waveform) -> list[tuple[int, Waveform]]:
    """Cut a model-rate waveform into (start_ms, window) pairs.

    A signal of at least WINDOW_MS whole frames gets only full windows:
    one every HOP_MS while it ends before the last whole frame, then one
    that ends there (its samples past that frame are left out). A shorter
    signal gets one window, the whole signal, or none if it has no whole
    frame. Each window's samples are a view of wave's, not a copy.
    """
    if wave.sample_rate_hz != MODEL_RATE_HZ:
        raise ValueError(f"cut_windows expects {MODEL_RATE_HZ} Hz audio, got {wave.sample_rate_hz}")
    covered_ms = len(wave.samples) // SAMPLES_PER_MS
    if covered_ms < WINDOW_MS:
        return [(0, wave)] if covered_ms else []
    starts = [*range(0, covered_ms - WINDOW_MS, HOP_MS), covered_ms - WINDOW_MS]
    return [(start, Waveform(wave.samples[start * SAMPLES_PER_MS:(start + WINDOW_MS) * SAMPLES_PER_MS],
                             MODEL_RATE_HZ)) for start in starts]


def frame_owners(windows: list[tuple[int, int]], total_ms: int) -> np.ndarray:
    """The stitch rule: for each of total_ms frames, the index (into
    windows) of the window it takes its row from, or -1 where none covers it.

    Each entry is (start_ms, frames). Frame t (center t + 0.5) goes to the
    containing window whose center is nearest; ties keep the window that
    starts earlier, or at equal starts the one listed first.
    """
    owner = np.full(total_ms, -1)
    best = np.full(total_ms, np.inf)
    for i in sorted(range(len(windows)), key=lambda i: windows[i][0]):
        start, n = windows[i]
        hi = min(start + n, total_ms)
        if hi <= start:
            continue
        dist = np.abs(np.arange(start, hi) + 0.5 - (start + n / 2.0))
        upd = dist < best[start:hi]
        owner[start:hi][upd] = i
        best[start:hi][upd] = dist[upd]
    return owner


def stitch_predictions(windows: list[tuple[int, np.ndarray]], total_ms: int) -> np.ndarray:
    """Merge per-window 1 ms predictions into one sequence of total_ms frames.

    Each entry is (start_ms, per-frame array); arrays may be 1-D labels or
    2-D (frames, k) probabilities. In overlap regions each frame takes its
    row from the window frame_owners assigns it, the one whose center is
    nearest. Raises InternalError on any coverage gap.
    """
    if total_ms == 0:
        first = windows[0][1] if windows else np.zeros(0, dtype=np.int8)
        return np.zeros((0,) + first.shape[1:], dtype=first.dtype)
    if not windows:
        raise InternalError("no windows to stitch")
    owner = frame_owners([(start, len(arr)) for start, arr in windows], total_ms)
    uncovered = int(np.sum(owner < 0))
    if uncovered:
        raise InternalError(f"stitch left {uncovered} frames uncovered")
    out = np.empty((total_ms,) + windows[0][1].shape[1:], dtype=windows[0][1].dtype)
    for i, (start, arr) in enumerate(windows):
        n = min(start + len(arr), total_ms) - start
        if n > 0:
            mine = owner[start:start + n] == i
            out[start:start + n][mine] = arr[:n][mine]
    return out
