"""Span tracer that wraps ddkseg's public functions from outside the package.

Every reference to a traced function in the ddkseg modules (module
attributes, re-exports, the CLI's command table, class attributes for
methods) is replaced by a wrapper that records a span: name, start, end
and the index of the enclosing span. Spans stay in memory; self time (a
span minus the spans directly inside it) is computed at the end. Counters
are taken at the same boundaries by looking at arguments and results.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (metric name, module, attribute path inside the module)
TRACED = [
    ("cli.segment", "ddkseg.cli", "cmd_segment"),
    ("cli.train", "ddkseg.cli", "cmd_train"),
    ("cli.rate", "ddkseg.cli", "cmd_rate"),
    ("cli.eval", "ddkseg.cli", "cmd_eval"),
    ("audio.read_wav", "ddkseg.audio", "read_wav"),
    ("audio.resample", "ddkseg.audio", "resample"),
    ("audio.cut_windows", "ddkseg.audio", "cut_windows"),
    ("audio.stitch_predictions", "ddkseg.audio", "stitch_predictions"),
    ("dsp.resample_kaiser", "ddkseg.dsp", "resample_kaiser"),
    ("dsp.apply_fir", "ddkseg.dsp", "apply_fir"),
    ("models.load_checkpoint", "ddkseg.models", "load_checkpoint"),
    ("models.save_checkpoint", "ddkseg.models", "save_checkpoint"),
    ("models.predict_file", "ddkseg.models", "predict_file"),
    ("models.predict_window", "ddkseg.models", "predict_window"),
    ("models.Segmenter.forward", "ddkseg.models", "Segmenter.forward"),
    ("models.Segmenter.backward", "ddkseg.models", "Segmenter.backward"),
    *[(f"nn.{cls}.{meth}", "ddkseg.nn.layers", f"{cls}.{meth}")
      for cls in ("Conv1d", "BatchNorm1d", "LeakyReLU", "Dropout", "Linear") for meth in ("forward", "backward")],
    ("nn.BiLSTM.forward", "ddkseg.nn.lstm", "BiLSTM.forward"),
    ("nn.BiLSTM.backward", "ddkseg.nn.lstm", "BiLSTM.backward"),
    ("nn.softmax_cross_entropy", "ddkseg.nn.loss", "softmax_cross_entropy"),
    ("nn.adam_step", "ddkseg.nn.adam", "adam_step"),
    ("augment.augment_wave", "ddkseg.augment", "augment_wave"),
    ("train.train_model", "ddkseg.train", "train_model"),
    ("postproc.postprocess", "ddkseg.postproc", "postprocess"),
    ("postproc.write_segments_csv", "ddkseg.postproc", "write_segments_csv"),
    ("postproc.read_segments_csv", "ddkseg.postproc", "read_segments_csv"),
    ("metrics.evaluate_pairs", "ddkseg.metrics", "evaluate_pairs"),
    ("metrics.ddk_rate", "ddkseg.metrics", "ddk_rate"),
    ("synth.load_manifest", "ddkseg.synth", "load_manifest"),
]
COUNTERS = [
    ("models.windows_per_forward", "count"),
    ("models.frames_kept_per_computed", "ratio"),
    ("models.padded_windows", "count"),
    ("dsp.resample_kaiser.samples_out", "count"),
    ("train.windows_per_step", "count"),
]


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, _, _ in TRACED:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(dict(COUNTERS))
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name_idx, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(self, args, kwargs, out)
            return out
        return wrapper

    def inside(self, name: str) -> bool:
        return any(self.names[self.spans[i][0]] == name for i in self.stack)

    def install(self) -> None:
        """Replace every reference to each traced function inside ddkseg."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ddkseg" or n.startswith("ddkseg.")]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self._wrap(name, original)
            self._set(owner, leaf, wrapped)
            if cls_path:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapped
                                self._patched.append((value, k, original))

    def _set(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name_idx, start, end, _) in enumerate(self.spans):
            self_s[self.names[name_idx]] += (end - start) - child[i]
            calls[self.names[name_idx]] += 1
        return self_s, calls

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round self time and calls of every traced function, plus counters."""
        self_s, calls = self.self_times()
        out = {}
        for name, _, _ in TRACED:
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / rounds
            out[f"{name}.calls"] = calls.get(name, 0) / rounds
        c = self.counts
        out["models.windows_per_forward"] = _ratio(c["eval_windows"], c["eval_forwards"])
        out["models.frames_kept_per_computed"] = _ratio(c["frames_kept"], c["frames_computed"])
        out["models.padded_windows"] = c["padded_windows"] / rounds
        out["dsp.resample_kaiser.samples_out"] = c["resampled_samples"] / rounds
        out["train.windows_per_step"] = _ratio(c["train_windows"], c["train_steps"])
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _segmenter_forward(tr: Tracer, args, kwargs, out) -> None:
    if tr.inside("models.predict_file"):
        tr.counts["eval_forwards"] += 1
        tr.counts["eval_windows"] += out.shape[0]
        tr.counts["frames_computed"] += out.shape[0] * out.shape[1]


def _predict_file(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["frames_kept"] += len(out.labels)


def _predict_window(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["padded_windows"] += bool(out.padded)


def _resample_kaiser(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["resampled_samples"] += len(out)


def _segmenter_backward(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["train_steps"] += 1
    tr.counts["train_windows"] += args[1].shape[0]


_OBSERVERS = {
    "models.Segmenter.forward": _segmenter_forward,
    "models.predict_file": _predict_file,
    "models.predict_window": _predict_window,
    "dsp.resample_kaiser": _resample_kaiser,
    "models.Segmenter.backward": _segmenter_backward,
}
