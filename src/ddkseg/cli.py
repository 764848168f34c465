"""Command-line entry point.

Subcommands: synth (build a labeled corpus), train, segment (wav -> segment
CSV), rate (segment CSV -> syllable rates), eval (prediction vs annotation
report). Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from .errors import ConfigError, DataError
from .metrics import ddk_rate, ddk_rate_vot_only, evaluate_pairs
from .models import ModelConfig, load_checkpoint, predict_file, save_checkpoint
from .nn import threads
from .postproc import postprocess, read_csv_rows, read_segments_csv, write_segments_csv, write_textgrid
from .synth import generate_corpus, load_manifest
from .train import TrainConfig, train_model, write_train_log
from .audio import read_wav

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit((EXIT_USAGE, f"{self.prog}: error: {message}"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ddkseg", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="0.6,0.2,0.2", help="train,val,test ratios")
    p.add_argument("--min-syllables", type=int, default=7)
    p.add_argument("--max-syllables", type=int, default=11)

    p = sub.add_parser("train", help="train a segmenter on a corpus manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arch", choices=["lstm", "cnn"], default="lstm")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--config", default=None,
                   help='JSON file {"model": {...}} of ModelConfig fields set over the --arch defaults; '
                        'training is set by the flags above only. The architecture follows lstm_layers '
                        '(0 means cnn), and each conv\'s padding is derived from its kernel, stride and '
                        'dilation. The 1 s analysis window (audio.WINDOW_MS) and the 3 labels '
                        '(postproc.N_CLASSES) are fixed.')

    p = sub.add_parser("segment", help="predict segment CSVs for wav files")
    p.add_argument("inputs", nargs="+", metavar="WAV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--textgrid", action="store_true", help="also write .TextGrid files")

    p = sub.add_parser("rate", help="syllable rates from segment CSVs")
    p.add_argument("inputs", nargs="+", metavar="CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--window", default=None, metavar="START:END",
                   help="articulation window in seconds; switches to the VOT-only rate")
    p.add_argument("--windows", default=None, metavar="CSV",
                   help="per-file windows (path,start_s,end_s); switches to the VOT-only rate")

    p = sub.add_parser("eval", help="compare prediction CSVs against annotations")
    p.add_argument("--pred", required=True, help="segment CSV or directory of CSVs")
    p.add_argument("--target", required=True, help="segment CSV or directory of CSVs")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--rates-out", default=None, help="optional per-trial rate CSV")
    return parser


def cmd_synth(args) -> int:
    try:
        ratios = tuple(float(x) for x in args.split.split(","))
    except ValueError:
        ratios = ()
    if len(ratios) != 3:
        raise ConfigError(f"--split needs three numeric ratios, got {args.split!r}")
    print(generate_corpus(args.trials, ratios, args.seed, args.out_dir,
                          syllable_range=(args.min_syllables, args.max_syllables)))
    return EXIT_OK


def _load_train_configs(args) -> tuple[ModelConfig, TrainConfig]:
    """The model from --arch and --config, the training from its flags."""
    model_over: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise DataError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f'{path}: expected a JSON object {{"model": {{...}}}}')
        unknown = set(data) - {"model"}
        if unknown:
            raise ConfigError(f'{path}: invalid config keys {sorted(unknown)}: the file holds only "model". '
                              "Set training with --epochs, --patience, --batch-size, --lr and --no-augment, "
                              "and set the seed with --seed")
        model_over = data.get("model", {})
        if not isinstance(model_over, dict):
            raise ConfigError(f'{path}: "model" must be a JSON object, got {model_over!r}')
    base = ModelConfig.cnn_default() if args.arch == "cnn" else ModelConfig.lstm_default()
    model_cfg = ModelConfig.from_dict({**base.to_dict(), **model_over})
    train_cfg = TrainConfig(batch_size=args.batch_size, lr=args.lr, max_epochs=args.epochs,
                            patience=args.patience, seed=args.seed, augment=not args.no_augment)
    return model_cfg, train_cfg


def cmd_train(args) -> int:
    model_cfg, train_cfg = _load_train_configs(args)
    splits = load_manifest(args.manifest)
    if not splits["train"] or not splits["val"]:
        raise DataError(f"{args.manifest}: needs non-empty train and val splits")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # before training, so a bad path fails fast
    result = train_model(splits["train"], splits["val"], model_cfg, train_cfg)
    ckpt = out_dir / "checkpoint.npz"
    save_checkpoint(ckpt, result.model,
                    meta={"best_epoch": result.best_epoch, "best_val_acc": result.best_val_acc,
                          "seed": train_cfg.seed, "arch": model_cfg.architecture,
                          "train": dataclasses.asdict(train_cfg)})
    write_train_log(out_dir / "train_log.csv", result.log)
    print(f"{ckpt} best_epoch={result.best_epoch} val_acc={result.best_val_acc:.4f}")
    return EXIT_OK


def cmd_segment(args) -> int:
    """Segment every readable input once, however often it is named; an
    unreadable one is reported on stderr and skipped, and the command exits
    2 once all inputs were tried. Two distinct inputs that would write one
    output name are a usage error."""
    # One entry per file, however it is spelled: a.wav, ./a.wav or its absolute path.
    inputs = sorted({Path(name).absolute(): Path(name) for name in args.inputs}.values(), key=str)
    by_stem = {}
    for wav_path in inputs:
        first = by_stem.setdefault(wav_path.stem, wav_path)
        if first != wav_path:
            raise ConfigError(f"{first} and {wav_path} would both write {wav_path.stem}.csv")
    model, _ = load_checkpoint(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for wav_path in inputs:
        try:
            if not wav_path.is_file():
                raise DataError(f"input not found: {wav_path}")
            wave = read_wav(wav_path)
        except (DataError, OSError) as exc:
            print(f"ddkseg: {exc}", file=sys.stderr)
            failed += 1
            continue
        pred = predict_file(model, wave)
        segments = postprocess(pred.labels)
        out_csv = out_dir / (wav_path.stem + ".csv")
        write_segments_csv(out_csv, segments)
        if args.textgrid:
            write_textgrid(out_dir / (wav_path.stem + ".TextGrid"), segments, len(pred))
        print(out_csv)
    if failed:
        raise DataError(f"{failed} of {len(inputs)} inputs could not be read")
    return EXIT_OK


def _parse_window(text: str) -> tuple[float, float]:
    try:
        start, end = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--window must be START:END in seconds, got {text!r}") from exc
    problem = _window_problem(start, end)
    if problem:
        raise ConfigError(f"--window {problem}, got {text!r}")
    return start, end


def _window_problem(start: float, end: float) -> str | None:
    """Why [start, end] seconds is not an articulation window, or None."""
    if not (math.isfinite(start) and math.isfinite(end)):
        return "bounds must be finite"
    if end <= start:
        return "end must exceed start"
    return None


def _load_windows_csv(path) -> dict[str, tuple[float, float]]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"windows file not found: {path}")
    out = {}
    for lineno, row in read_csv_rows(path, ["path", "start_s", "end_s"]):
        try:
            out[row[0]] = (float(row[1]), float(row[2]))
        except (IndexError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: expected path,start_s,end_s, got {row!r}") from exc
        problem = _window_problem(*out[row[0]])
        if problem:
            raise DataError(f"{path}:{lineno}: window {problem}, got {row!r}")
    return out


def cmd_rate(args) -> int:
    if args.window and args.windows:
        raise ConfigError("--window and --windows are mutually exclusive")
    vot_only = bool(args.window or args.windows)
    shared_window = _parse_window(args.window) if args.window else None
    per_file = _load_windows_csv(args.windows) if args.windows else {}

    rows = []
    for csv_path in sorted(args.inputs):
        csv_path = Path(csv_path)
        segments = read_segments_csv(csv_path)
        if vot_only:
            window = shared_window or per_file.get(str(csv_path)) or per_file.get(csv_path.name)
            if window is None:
                raise DataError(f"no window given for {csv_path}")
            result = ddk_rate_vot_only(segments, window)
        else:
            result = ddk_rate(segments)
        if result is None:
            rows.append([str(csv_path), "undefined", "", "", "", ""])
        else:
            rows.append([str(csv_path), "ok", f"{result.rate_per_s:.6g}",
                         result.count.raw_count, result.count.corrected_count,
                         f"{result.articulation_time_s:.6g}"])

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "status", "rate_syll_per_s", "raw_count",
                         "corrected_count", "articulation_time_s"])
        writer.writerows(rows)
    print(args.out)
    return EXIT_OK


def _eval_pairs(pred_path: Path, target_path: Path) -> list[tuple[str, Path, Path]]:
    if pred_path.is_dir() != target_path.is_dir():
        raise DataError("--pred and --target must both be files or both directories")
    if not pred_path.is_dir():
        for p in (pred_path, target_path):
            if not p.is_file():
                raise DataError(f"not found: {p}")
        return [(pred_path.stem, pred_path, target_path)]
    preds, targets = ({p.name for p in path.glob("*.csv")} for path in (pred_path, target_path))
    for name in sorted(preds ^ targets):
        print(f"ddkseg: not scored, only under {pred_path if name in preds else target_path}: {name}",
              file=sys.stderr)
    names = sorted(preds & targets)
    if not names:
        raise DataError(f"no matching CSV names under {pred_path} and {target_path}")
    return [(Path(n).stem, pred_path / n, target_path / n) for n in names]


def cmd_eval(args) -> int:
    pairs = _eval_pairs(Path(args.pred), Path(args.target))
    triples = [(trial_id, read_segments_csv(p), read_segments_csv(t)) for trial_id, p, t in pairs]
    report = evaluate_pairs(triples)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerows(report.to_rows())
    if args.rates_out:
        with open(args.rates_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial_id", "predicted_rate", "target_rate"])
            for trial_id, pred_rate, tgt_rate in report.rates:
                writer.writerow([trial_id,
                                 "" if pred_rate is None else f"{pred_rate:.6g}",
                                 "" if tgt_rate is None else f"{tgt_rate:.6g}"])
    print(report.format_table())
    return EXIT_OK


COMMANDS = {"synth": cmd_synth, "train": cmd_train, "segment": cmd_segment,
            "rate": cmd_rate, "eval": cmd_eval}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, tuple):
            code, message = exc.code
            print(message, file=sys.stderr)
            return code
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    # The command runs with BLAS on one thread: the helper threads start
    # only then (ddkseg.nn.threads), and a training run's weights then do
    # not depend on the CPU count. The caller's count comes back after.
    blas_before = threads.blas_threads(1)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"ddkseg: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"ddkseg: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"ddkseg: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - safety net
        logger.exception("internal error")
        print(f"ddkseg: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if blas_before is not None:
            threads.blas_threads(blas_before)


if __name__ == "__main__":
    sys.exit(main())
