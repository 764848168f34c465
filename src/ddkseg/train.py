"""Frame-wise training of the segmenter models.

Trials are resampled to the model's 16 kHz once. Each epoch re-augments
every trial (one mode drawn per trial, see augment.augment_wave), skips a
random 0 to SHIFT_SAMPLES - 1 samples at its start, cuts disjoint
audio.WINDOW_MS windows (the length inference runs on), and minimizes
class-weighted softmax cross-entropy with Adam. Class weights are inverse
frequencies capped at CLASS_WEIGHT_CAP. The parameters with the best
validation frame accuracy are kept; training stops early after `patience`
epochs without improvement. A non-finite gradient, training loss or
validation loss ends training with a ConfigError (the lr is too large).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .audio import MODEL_RATE_HZ, SAMPLES_PER_MS, WINDOW_MS, resample
from .augment import augment_wave
from .errors import ConfigError, DataError
from .models import ModelConfig, Segmenter
from .postproc import N_CLASSES, Segment
from .synth import Trial

logger = logging.getLogger(__name__)

TRAIN_LOG_HEADER = ["epoch", "train_loss", "val_loss", "val_frame_acc"]
SHIFT_SAMPLES = 1000
CLASS_WEIGHT_CAP = 5.0


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one training run, checked when made: an invalid one
    raises ConfigError. A patience of max_epochs or more never stops early."""

    batch_size: int = 32
    lr: float = 1e-4
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0
    augment: bool = True

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience", "seed"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (type(self.lr) in (int, float) and 0 < self.lr < math.inf):
            raise ConfigError(f"lr must be a positive number, got {self.lr!r}")
        if type(self.augment) is not bool:
            raise ConfigError(f"augment must be true or false, got {self.augment!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


@dataclass
class TrainResult:
    model: Segmenter
    log: list[dict]
    best_epoch: int
    best_val_acc: float


def labels_for_midpoints(segments: list[Segment], midpoints_ms: np.ndarray) -> np.ndarray:
    """Label at each frame midpoint: the covering segment's class, else OTHER."""
    labels = np.zeros(len(midpoints_ms), dtype=np.int64)
    if not segments:
        return labels
    onsets = np.array([s.onset_ms for s in segments], dtype=np.float64)
    offsets = np.array([s.offset_ms for s in segments], dtype=np.float64)
    ids = np.array([s.label for s in segments], dtype=np.int64)
    idx = np.searchsorted(onsets, midpoints_ms, side="right") - 1
    valid = (idx >= 0) & (midpoints_ms < offsets[np.clip(idx, 0, None)])
    labels[valid] = ids[idx[valid]]
    return labels


def class_weights(trials: list[Trial]) -> np.ndarray:
    """Inverse-frequency weights over {other, vot, vowel}, capped at CLASS_WEIGHT_CAP."""
    counts = np.zeros(N_CLASSES, dtype=np.float64)
    for trial in trials:
        mids = np.arange(trial.wave.duration_ms) + 0.5
        labels = labels_for_midpoints(trial.segments, mids)
        counts += np.bincount(labels, minlength=N_CLASSES)
    total = counts.sum()
    weights = np.where(counts > 0, total / (N_CLASSES * np.maximum(counts, 1.0)), CLASS_WEIGHT_CAP)
    return np.minimum(weights, CLASS_WEIGHT_CAP)


def _trial_windows(samples: np.ndarray, segments: list[Segment], shift: int) -> tuple[np.ndarray, np.ndarray]:
    """The disjoint full WINDOW_MS windows of samples[shift:], plus midpoint-rule labels."""
    window_samples = WINDOW_MS * SAMPLES_PER_MS
    samples = samples[shift:]
    n_windows = len(samples) // window_samples
    x = samples[:n_windows * window_samples].reshape(n_windows, 1, window_samples).astype(np.float32)
    mids = shift / SAMPLES_PER_MS + np.arange(n_windows * WINDOW_MS) + 0.5
    return x, labels_for_midpoints(segments, mids).reshape(n_windows, WINDOW_MS)


def _epoch_dataset(trials: list[Trial], cfg: TrainConfig, rng: np.random.Generator | None,
                   split: str) -> tuple[np.ndarray, np.ndarray]:
    """Windows for one pass over the `split` ("training" or "validation")
    trials; rng enables augmentation + start shifts."""
    xs, ys = [], []
    for trial in trials:
        wave = trial.wave
        shift = 0
        if rng is not None:
            if cfg.augment:
                wave = augment_wave(wave, rng)
            shift = int(rng.integers(SHIFT_SAMPLES))
        x, y = _trial_windows(wave.samples, trial.segments, shift)
        xs.append(x)
        ys.append(y)
    x, y = np.concatenate(xs), np.concatenate(ys)
    if not len(x):
        raise DataError(f"no usable {split} windows (are all {split} trials shorter than one window?)")
    return x, y


def _evaluate(model: Segmenter, x: np.ndarray, y: np.ndarray, batch_size: int,
              weights: np.ndarray) -> tuple[float, float]:
    total_loss, total_frames, correct = 0.0, 0, 0
    for lo in range(0, len(x), batch_size):
        xb, yb = x[lo:lo + batch_size], y[lo:lo + batch_size]
        logits = model.forward(xb)
        loss, _ = nn.softmax_cross_entropy(logits, yb, weights)
        n = yb.size
        total_loss += loss * n
        total_frames += n
        correct += int(np.sum(np.argmax(logits, axis=2) == yb))
    return total_loss / total_frames, correct / total_frames


def train_model(train_trials: list[Trial], val_trials: list[Trial],
                model_cfg: ModelConfig, cfg: TrainConfig) -> TrainResult:
    if not train_trials:
        raise DataError("empty training set")
    if not val_trials:
        raise DataError("empty validation set")

    # Windows and labels count SAMPLES_PER_MS samples per ms: the model's rate.
    train_trials = [replace(t, wave=resample(t.wave, MODEL_RATE_HZ)) for t in train_trials]
    val_trials = [replace(t, wave=resample(t.wave, MODEL_RATE_HZ)) for t in val_trials]
    model = Segmenter(model_cfg, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)  # augmentation, shifts, shuffling, dropout
    weights = class_weights(train_trials).astype(np.float64)
    logger.info("class weights (other, vot, vowel): %s", np.round(weights, 3))

    val_x, val_y = _epoch_dataset(val_trials, cfg, None, "validation")
    adam = nn.init_adam(model.named_params(), lr=cfg.lr)

    log: list[dict] = []
    best_epoch, best_acc, best_snapshot = 0, -1.0, model.snapshot()
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        x, y = _epoch_dataset(train_trials, cfg, rng, "training")
        order = rng.permutation(len(x))
        epoch_loss, seen = 0.0, 0
        for lo in range(0, len(order), cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            loss, grads = model.loss_and_grads(x[sel], y[sel], weights, rng=rng)
            try:
                nn.adam_step(model.named_params(), grads, adam)
            except nn.NonFiniteGradientError as exc:
                raise ConfigError(f"training diverged in epoch {epoch} ({exc}): lr {cfg.lr:g} is too large") from exc
            epoch_loss += loss * y[sel].size
            seen += y[sel].size
        train_loss = epoch_loss / seen

        val_loss, val_acc = _evaluate(model, val_x, val_y, cfg.batch_size, weights)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise ConfigError(f"training diverged in epoch {epoch} (train_loss {train_loss:g}, "
                              f"val_loss {val_loss:g}): lr {cfg.lr:g} is too large")
        log.append({"epoch": epoch, "train_loss": train_loss,
                    "val_loss": val_loss, "val_frame_acc": val_acc})
        logger.info("epoch %d: train_loss=%.4f val_loss=%.4f val_acc=%.4f",
                    epoch, train_loss, val_loss, val_acc)

        if val_acc > best_acc:
            best_epoch, best_acc, best_snapshot = epoch, val_acc, model.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                logger.info("early stop at epoch %d (best epoch %d)", epoch, best_epoch)
                break

    model.restore(best_snapshot)
    return TrainResult(model, log, best_epoch, best_acc)


def write_train_log(path, log: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRAIN_LOG_HEADER)
        writer.writeheader()
        for row in log:
            writer.writerow({"epoch": row["epoch"],
                             "train_loss": f"{row['train_loss']:.10g}",
                             "val_loss": f"{row['val_loss']:.10g}",
                             "val_frame_acc": f"{row['val_frame_acc']:.10g}"})
