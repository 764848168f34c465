"""The two raw-waveform segmenter architectures.

Both take mono 16 kHz audio and emit one 3-class decision per 1 ms frame.
The "lstm" variant runs five conv blocks (conv + batchnorm + leaky ReLU +
dropout) into a two-layer bidirectional LSTM and two fully-connected
layers; the "cnn" variant runs ten conv blocks (the later ones dilated to
widen context) into the same two-layer head. The conv strides multiply to
16, which at 16 kHz pins the output grid to exactly one step per
millisecond.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .audio import MODEL_RATE_HZ, SAMPLES_PER_MS, Waveform, cut_windows, frame_owners, resample
from .errors import ConfigError, DataError, InternalError
from .nn.layers import LEAKY_SLOPE, conv_output_length
from .nn.threads import _Helpers
from .postproc import LABEL_NAMES, N_CLASSES

CHECKPOINT_VERSION = 1
# Full-length windows of one file that predict_file runs through one forward
# of an LSTM model: the recurrence's per-step cost is paid once per stack.
WINDOWS_PER_FORWARD = 4
# Fields of version-1 checkpoints that no longer exist; neither changed the model.
_RETIRED_CONFIG_KEYS = ("frame_rate_ms", "allow_custom_shapes")
# Keys that version-1 checkpoints store but that no config sets: each is
# accepted only at the value the model has anyway, for the reason given.
_STORED_FIXED = {
    "n_classes": (lambda cfg: N_CLASSES, f"one per label: {', '.join(LABEL_NAMES.values())}"),
    "leaky_slope": (lambda cfg: LEAKY_SLOPE, "the slope of every LeakyReLU"),
    "architecture": (lambda cfg: cfg.architecture,
                     "which lstm_layers sets (a cnn architecture has no LSTM layers, "
                     "an lstm architecture needs lstm_layers >= 1)"),
    "conv_paddings": (lambda cfg: cfg.conv_paddings, "which each conv's kernel, stride and dilation set"),
}


@dataclass(frozen=True)
class ModelConfig:
    """Layer shapes of one segmenter: the defaults are the default "lstm"
    model, cnn_default() the default "cnn" model.

    The conv lists hold one entry per conv block, and their strides must
    multiply to 16, one frame per ms at 16 kHz. Each conv's padding is not
    set but derived (conv_paddings), so the stack gives every input of 16
    samples or more at least one frame per ms. The architecture is not set
    either: a model with LSTM layers is "lstm", one with lstm_layers=0 is
    "cnn", and has lstm_hidden 0 whatever was asked, so each model has one
    config. The output layer has N_CLASSES units. A config is checked when
    it is made, so an invalid one raises ConfigError and never exists.
    """

    conv_channels: tuple[int, ...] = (32, 64, 64, 128, 128)
    conv_kernels: tuple[int, ...] = (16, 5, 5, 3, 3)
    conv_strides: tuple[int, ...] = (4, 2, 2, 1, 1)
    conv_dilations: tuple[int, ...] = (1, 1, 1, 1, 1)
    lstm_hidden: int = 128
    lstm_layers: int = 2
    fc_hidden: int = 64
    dropout_p: float = 0.1

    @classmethod
    def lstm_default(cls) -> "ModelConfig":
        return cls()

    @classmethod
    def cnn_default(cls) -> "ModelConfig":
        return cls(
            conv_channels=(32, 64, 64, 128, 128, 128, 128, 256, 256, 256),
            conv_kernels=(16, 5, 5, 3, 3, 3, 3, 3, 3, 3),
            conv_strides=(4, 2, 2, 1, 1, 1, 1, 1, 1, 1),
            conv_dilations=(1, 1, 1, 2, 4, 8, 16, 32, 1, 1),
            lstm_hidden=0,
            lstm_layers=0,
        )

    def __post_init__(self):
        for name in ("conv_channels", "conv_kernels", "conv_strides", "conv_dilations"):
            values = getattr(self, name)
            if type(values) is not tuple or not all(type(v) is int and v >= 1 for v in values):
                raise ConfigError(f"{name} must be a list of integers >= 1, got {values!r}")
        for name, low in (("lstm_hidden", 0), ("lstm_layers", 0), ("fc_hidden", 1)):
            value = getattr(self, name)
            if not (type(value) is int and value >= low):
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (type(self.dropout_p) in (int, float) and 0.0 <= self.dropout_p < 1.0):
            raise ConfigError(f"dropout_p must be a number in [0, 1), got {self.dropout_p!r}")
        n = len(self.conv_channels)
        for name in ("conv_kernels", "conv_strides", "conv_dilations"):
            if len(getattr(self, name)) != n:
                raise ConfigError(f"{name} must have {n} entries to match conv_channels")
        stride_product = math.prod(self.conv_strides)
        if stride_product != SAMPLES_PER_MS:
            raise ConfigError(f"conv stride product must be {SAMPLES_PER_MS} "
                              f"(one frame per ms at {MODEL_RATE_HZ} Hz), got {stride_product}")
        if self.lstm_layers and self.lstm_hidden < 1:
            raise ConfigError("an lstm architecture (lstm_layers >= 1) needs lstm_hidden >= 1")
        if not self.lstm_layers:
            object.__setattr__(self, "lstm_hidden", 0)  # frozen: set once, while the config is made

    @property
    def architecture(self) -> str:
        return "lstm" if self.lstm_layers else "cnn"

    @property
    def conv_paddings(self) -> tuple[int, ...]:
        """Each conv's zero padding per side: the least, ceil((dilation *
        (kernel - 1) + 1 - stride) / 2), with which it gives at least
        length // stride frames for an input of length >= stride frames."""
        return tuple(max(0, (d * (k - 1) + 2 - s) // 2)
                     for k, s, d in zip(self.conv_kernels, self.conv_strides, self.conv_dilations))

    def receptive_field_samples(self) -> int:
        rf, jump = 1, 1
        for k, s, d in zip(self.conv_kernels, self.conv_strides, self.conv_dilations):
            rf += (d * (k - 1)) * jump
            jump *= s
        return rf

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self.__dict__.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        data = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items() if k not in _RETIRED_CONFIG_KEYS}
        unknown = set(data) - set(cls.__dataclass_fields__) - set(_STORED_FIXED)
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        cfg = cls(**{k: v for k, v in data.items() if k not in _STORED_FIXED})
        for key, (value_of, reason) in _STORED_FIXED.items():
            if key in data and data[key] != value_of(cfg):
                raise ConfigError(f"{key} must be {value_of(cfg)!r}, {reason}, got {data[key]!r}")
        return cfg


@dataclass
class FramePrediction:
    """Per-millisecond class decisions with the class probabilities behind them."""

    labels: np.ndarray  # (frames,) int8
    probs: np.ndarray   # (frames, N_CLASSES) float32
    padded: bool = False

    def __len__(self) -> int:
        return len(self.labels)


class Segmenter:
    """One of the two architectures, instantiated with concrete parameters."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        rng = np.random.default_rng(seed)

        conv_layers: list[nn.Layer] = []
        in_ch = 1
        for ch, k, s, p, d in zip(cfg.conv_channels, cfg.conv_kernels, cfg.conv_strides,
                                  cfg.conv_paddings, cfg.conv_dilations):
            conv_layers += [
                nn.Conv1d(in_ch, ch, k, stride=s, padding=p, dilation=d, rng=rng, dtype=dtype),
                nn.BatchNorm1d(ch, dtype=dtype),
                nn.LeakyReLU(),
                nn.Dropout(cfg.dropout_p),
            ]
            in_ch = ch
        self.conv = nn.Sequential(conv_layers)

        head_layers: list[nn.Layer] = []
        feat = in_ch
        for layer_idx in range(cfg.lstm_layers):
            head_layers.append(nn.BiLSTM(feat, cfg.lstm_hidden, rng=rng, dtype=dtype))
            feat = 2 * cfg.lstm_hidden
            if layer_idx < cfg.lstm_layers - 1:
                head_layers.append(nn.Dropout(cfg.dropout_p))
        head_layers += [
            nn.Linear(feat, cfg.fc_hidden, rng=rng, dtype=dtype),
            nn.LeakyReLU(),
            nn.Dropout(cfg.dropout_p),
            nn.Linear(cfg.fc_hidden, N_CLASSES, rng=rng, dtype=dtype),
        ]
        self.head = nn.Sequential(head_layers)

    def named_params(self) -> dict[str, np.ndarray]:
        out = {f"conv.{k}": v for k, v in self.conv.named_params().items()}
        out.update({f"head.{k}": v for k, v in self.head.named_params().items()})
        return out

    def named_grads(self) -> dict[str, np.ndarray]:
        out = {f"conv.{k}": v for k, v in self.conv.named_grads().items()}
        out.update({f"head.{k}": v for k, v in self.head.named_grads().items()})
        return out

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """Live views of every array a checkpoint holds: "param/<name>" for
        the trainable parameters, "state/<name>" for BatchNorm moments."""
        out = {f"param/{k}": v for k, v in self.named_params().items()}
        for prefix, seq in (("conv", self.conv), ("head", self.head)):
            for i, layer in enumerate(seq.layers):
                for k, v in layer.extra_state().items():
                    out[f"state/{prefix}.{i}.{k}"] = v
        return out

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None, *,
                keep: tuple[int, int] | None = None) -> np.ndarray:
        """(batch, 1, samples) -> logits (batch, samples // 16, N_CLASSES).

        train=True keeps what backward() needs, each layer its cache; the
        model itself keeps nothing. train=False is the inference path: no
        layer keeps anything (see ddkseg.nn.layers), so threads can share a
        model, and x is left unchanged.

        keep=(lo, hi) asks for the logits of frames [lo, hi) only, on the
        inference path of a CNN model: the stride-1 top of its conv stack,
        and its per-frame head, then compute only the frames those logits
        read, equal to the full forward's [:, lo:hi] up to float rounding.
        An LSTM model raises ValueError: its recurrence reads every frame.
        """
        x = np.ascontiguousarray(x, dtype=self.dtype)
        frames = x.shape[2] // SAMPLES_PER_MS
        if keep is not None:
            if not 0 <= keep[0] < keep[1] <= frames:
                raise ValueError(f"keep span {keep} is empty or outside the window's {frames} frames")
            if train:
                raise ValueError("keep is for inference: pass train=False")
            if self.cfg.lstm_layers:
                raise ValueError("keep needs a model without LSTM layers: a recurrence reads every frame")
            z = self._cropped_conv(x, *keep)
        else:
            z = self.conv.forward(x, train=train, rng=rng)[:, :, :frames]
        z = np.ascontiguousarray(z.transpose(0, 2, 1))
        return self.head.forward(z, train=train, rng=rng)

    def _cropped_conv(self, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Eval-mode conv stack output for frames [lo, hi) only.

        The strided bottom of the stack runs whole. Each conv of the
        stride-1 top reads frames [j - padding, j - padding + dilation *
        (kernel - 1)] of its input for output frame j, so the top's input
        at conv i is cut to [lo - P, hi + R - P), with P the paddings and R
        the reaches dilation * (kernel - 1) summed over convs i and above,
        clipped to the frames that input has. A conv pads only where its
        slice meets the real window edge: padding an inner side would only
        compute frames that the next slice drops.
        """
        blocks = [self.conv.layers[i:i + 4] for i in range(0, len(self.conv.layers), 4)]
        n_bottom = len(blocks)
        while n_bottom and blocks[n_bottom - 1][0].stride == 1:
            n_bottom -= 1
        z = x
        for block in blocks[:n_bottom]:
            for layer in block:
                z = layer.forward(z)
        top = blocks[n_bottom:]
        pad = sum(conv.padding for conv, *_ in top)
        reach = sum(conv.dilation * (conv.kernel - 1) for conv, *_ in top)
        length = z.shape[2]  # frames of this depth's uncropped activation
        offset = 0  # the frame z[:, :, 0] holds
        for conv, *rest in top:
            a = max(0, lo - pad)
            b = min(length, hi + reach - pad)
            left = conv.padding if a == 0 else 0
            right = conv.padding if b == length else 0
            z = conv.forward(z[:, :, a - offset:b - offset], pad=(left, right))
            for layer in rest:
                z = layer.forward(z)
            offset = a + conv.padding - left
            pad -= conv.padding
            reach -= conv.dilation * (conv.kernel - 1)
            length += 2 * conv.padding - conv.dilation * (conv.kernel - 1)
        return z[:, :, lo - offset:hi - offset]

    def backward(self, dlogits: np.ndarray) -> None:
        """Every layer's gradients, from the last train forward's caches.

        The call opens one helper thread (_Helpers(2, bound=1): one on two or
        more CPUs while BLAS runs on one thread), which runs each Conv1d's,
        Linear's and BiLSTM's weight-gradient jobs beside the backward of the
        layers below (see ddkseg.nn.layers). Every GEMM keeps its operands, so
        the gradients are bit-identical to inline jobs, and at most one job
        waits behind the running one. The helper is joined before this
        returns, so every gradient is complete then; the first exception a
        job raised is raised here.
        """
        layers = self.conv.layers + self.head.layers
        try:
            with _Helpers(2, bound=1) as helpers:
                for layer in layers:
                    layer._jobs = helpers
                dz = self.head.backward(dlogits)  # raises ValueError unless a train forward ran
                top = self.conv.layers[-4]  # the last block's Conv1d, its padded input still cached
                computed = conv_output_length(top._cache[0].shape[2], top.kernel, top.stride, 0, top.dilation)
                extra = computed - dz.shape[1]  # frames the conv stack computed past the logits
                dz = np.ascontiguousarray(dz.transpose(0, 2, 1))
                if extra:
                    dz = np.pad(dz, ((0, 0), (0, 0), (0, extra)))
                self.conv.backward(dz)
        finally:
            for layer in layers:
                layer._jobs = None

    def loss_and_grads(self, x: np.ndarray, targets: np.ndarray,
                       class_weights: np.ndarray | None = None,
                       rng: np.random.Generator | None = None) -> tuple[float, dict[str, np.ndarray]]:
        """One training step's loss and gradients (train mode). The
        BiLSTM forwards and backward each join the helper they start, so at
        most one helper is alive at a time. A step that fails part way
        leaves the model and its layers holding nothing."""
        try:
            logits = self.forward(x, train=True, rng=rng)
            loss, dlogits = nn.softmax_cross_entropy(logits, targets, class_weights)
            self.backward(dlogits)
        finally:
            for layer in self.conv.layers + self.head.layers:
                layer._cache = None
        return loss, self.named_grads()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.checkpoint_arrays().items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        live = self.checkpoint_arrays()
        for k, v in snapshot.items():
            live[k][...] = v


def predict_window(model: Segmenter, window: Waveform) -> FramePrediction:
    """Per-frame labels for one analysis window (eval mode): the per-window
    reference that predict_file's stacked and cropped forwards are tested
    against. predict_file itself does not call it.

    Windows shorter than the receptive field are zero-padded on the right
    and flagged; predictions are still cropped to floor(samples / 16).
    """
    if window.sample_rate_hz != MODEL_RATE_HZ:
        raise ValueError(f"predict_window expects {MODEL_RATE_HZ} Hz audio")
    frames = len(window.samples) // SAMPLES_PER_MS
    if frames == 0:
        return FramePrediction(np.zeros(0, dtype=np.int8),
                               np.zeros((0, N_CLASSES), dtype=np.float32), padded=False)
    samples = window.samples
    rf = model.cfg.receptive_field_samples()
    padded = len(samples) < rf
    if padded:
        samples = np.concatenate([samples, np.zeros(rf - len(samples))])
    probs = _window_probs(model, samples[None, None, :])[0, :frames]
    return FramePrediction(np.argmax(probs, axis=1).astype(np.int8), probs, padded=padded)


def _window_probs(model: Segmenter, x: np.ndarray, keep: tuple[int, int] | None = None) -> np.ndarray:
    """float32 class probabilities (n, frames, classes) of n stacked windows
    (n, 1, samples), of frames [keep[0], keep[1]) only when keep is given."""
    logits = model.forward(x, keep=keep)
    return nn.softmax_probs(logits.astype(np.float64)).astype(np.float32)


def predict_file(model: Segmenter, wave: Waveform) -> FramePrediction:
    """Resample, window, classify, and stitch a whole recording.

    cut_windows gives a file of 1 s or more only full (1 s) windows, the
    last ending at the last whole frame, and a shorter file one window,
    the whole file. Stitching gives each frame to one window
    (audio.frame_owners), so each window owns one contiguous span of
    frames (the windows' starts and ends both increase). The output is the
    owned spans' probabilities, concatenated in window order, and their
    argmax.

    Every window runs as a job on _Helpers. A job is one forward of a
    stack of windows (a one-window job passes a view of the samples, not a
    copy), and it stores each window's owned span under the window's
    index, so the output is bit-identical whatever the thread count.
    An LSTM model stacks WINDOWS_PER_FORWARD windows per job, so each step
    of the recurrence serves them all, and slices the spans from the output.
    Its jobs run on the calling thread: stacks of 4 on two threads
    measured 40.8 against 40.2 audio s/s on one (segment-lstm-16k, 2 CPUs),
    no gain for a peak RSS of 83.5 against 68.4 MB. Inside each stack's
    forward, though, each BiLSTM projects its next input block on a helper
    of its own (see ddkseg.nn.lstm).
    A CNN model has no recurrence to amortise and measured slower stacked.
    Each job runs one window with keep= its owned span, so the stride-1 top
    of its conv stack computes only what that span reads (see
    Segmenter.forward). Jobs go to one helper thread per further usable
    CPU, up to one per window, and to the calling thread once all are
    queued; a job holds no array until it runs, so the queue is unbounded.
    The GEMMs and elementwise kernels release the GIL, so the threads
    overlap. Like every _Helpers, these start only while BLAS runs on one
    thread; otherwise the jobs run on the calling thread.
    Stacking changes the probabilities by float32 rounding only.

    Windows shorter than the receptive field (only a short file's sole
    window, unless the field is longer than WINDOW_MS) are zero-padded on
    the right, and the result is flagged padded. All forwards are
    eval-mode and keep no state. When rounding puts duration_ms (the
    output length) one past the last whole frame, the final frame repeats
    the last prediction.
    """
    wave16 = resample(wave, MODEL_RATE_HZ)
    duration_ms = wave16.duration_ms
    windows = cut_windows(wave16)
    if not windows:
        # No whole frame (or no audio): nothing to classify, call it background.
        labels = np.zeros(duration_ms, dtype=np.int8)
        probs = np.full((duration_ms, N_CLASSES), 1.0 / N_CLASSES, dtype=np.float32)
        return FramePrediction(labels, probs, padded=duration_ms > 0)

    covered_ms = len(wave16.samples) // SAMPLES_PER_MS
    owner = frame_owners([(start, len(w) // SAMPLES_PER_MS) for start, w in windows], covered_ms)
    if (owner < 0).any():
        raise InternalError(f"stitch left {np.sum(owner < 0)} frames uncovered")
    # Owners never decrease along the file, so window i owns [edges[i], edges[i + 1]).
    edges = np.searchsorted(owner, np.arange(len(windows) + 1)).tolist()
    spans = [(edges[i] - start, edges[i + 1] - start) for i, (start, _) in enumerate(windows)]
    rf = model.cfg.receptive_field_samples()
    padded = len(windows[0][1]) < rf  # all windows have one length, or there is one
    lstm = bool(model.cfg.lstm_layers)
    per_job = WINDOWS_PER_FORWARD if lstm else 1
    owned = [None] * len(windows)  # probabilities of the frames each window owns

    def run(lo):
        group = range(lo, min(lo + per_job, len(windows)))
        stack = [windows[i][1].samples for i in group]
        if padded:
            stack = [np.concatenate([w, np.zeros(rf - len(w))]) for w in stack]
        x = stack[0][None, None, :] if len(stack) == 1 else np.stack(stack)[:, None, :]
        probs = _window_probs(model, x, keep=None if lstm else spans[lo])
        for i, p in zip(group, probs):
            owned[i] = p[slice(*spans[i])] if lstm else p

    with _Helpers(1 if lstm else len(windows)) as helpers:
        for lo in range(0, len(windows), per_job):
            helpers.submit(functools.partial(run, lo))
        helpers.help()
    if duration_ms > covered_ms:  # one frame at most: the last whole one's, again
        owned.append(owned[-1][-1:])
    probs = np.concatenate(owned)
    return FramePrediction(np.argmax(probs, axis=1).astype(np.int8), probs, padded=padded)


def save_checkpoint(path, model: Segmenter, meta: dict | None = None) -> None:
    """Versioned .npz: architecture config as JSON plus flat named arrays."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": model.cfg.to_dict(),
        "meta": meta or {},
    }
    np.savez(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
             **model.checkpoint_arrays())


def load_checkpoint(path) -> tuple[Segmenter, dict]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    try:
        with np.load(path) as data:
            header = json.loads(bytes(data["__header__"]).decode())
            if not isinstance(header, dict) or not isinstance(header.get("config"), dict):
                raise DataError(f"{path}: checkpoint header holds no config object")
            if header.get("format_version") != CHECKPOINT_VERSION:
                raise DataError(f"{path}: unsupported checkpoint version {header.get('format_version')}")
            cfg = ModelConfig.from_dict(header["config"])
            model = Segmenter(cfg, seed=0)
            live = model.checkpoint_arrays()
            stored = {k: data[k] for k in data.files if k != "__header__"}
            if set(stored) != set(live):
                raise DataError(f"{path}: checkpoint keys do not match architecture")
            for k, v in stored.items():
                if live[k].shape != v.shape:
                    raise DataError(f"{path}: shape mismatch for {k}: "
                                    f"{v.shape} stored vs {live[k].shape} expected")
                live[k][...] = v
                if not np.isfinite(live[k]).all():  # also a finite float64 past float32's range
                    raise DataError(f"{path}: non-finite values in {k}")
    except (OSError, ValueError, KeyError, ConfigError) as exc:
        raise DataError(f"{path}: unreadable checkpoint ({exc})") from exc
    return model, header.get("meta", {})
