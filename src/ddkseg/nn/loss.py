"""Softmax cross-entropy over per-frame class logits."""

from __future__ import annotations

import numpy as np


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray,
                          class_weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean weighted cross-entropy and its gradient w.r.t. the logits.

    logits: (..., C); targets: integer array of shape logits.shape[:-1].
    With uniform weights the gradient is (softmax - onehot) / frame_count;
    with class weights both loss and gradient normalize by the total weight
    so the loss scale stays comparable.
    """
    n_classes = logits.shape[-1]
    flat = logits.reshape(-1, n_classes)
    y = np.asarray(targets).reshape(-1)
    if y.size != flat.shape[0]:
        raise ValueError(f"targets shape {np.shape(targets)} does not match logits {logits.shape}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"targets must lie in [0, {n_classes}), got range "
                         f"[{int(y.min())}, {int(y.max())}]")

    shifted = flat - flat.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(denom)

    rows = np.arange(y.size)
    if class_weights is None:
        weights = None
        total = float(y.size)
        loss = float(-log_probs[rows, y].sum(dtype=np.float64) / total) if y.size else 0.0
    else:
        weights = np.asarray(class_weights, dtype=np.float64)[y]
        total = float(weights.sum())
        loss = float(-(log_probs[rows, y] * weights).sum(dtype=np.float64) / total) if y.size else 0.0

    dflat = exp / denom
    dflat[rows, y] -= 1.0
    if weights is None:
        dflat /= total if y.size else 1.0
    else:
        dflat *= (weights / total)[:, None]
    return loss, dflat.reshape(logits.shape).astype(logits.dtype)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)
