"""The ddkseg benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload segment-lstm-16k --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ./src and its
CLI is driven in this process, one fixed round of commands at a time, for
at least two rounds and while one more round as long as the last would end
within --seconds. With --trace 0 the last line of standard output holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"
CHECKPOINTS = BENCH / "checkpoints"
SETUP_REPEATS = 15

# Trial lists are [duration_ms, condition]. Durations are fixed so the work
# per round does not depend on the seed.
SEGMENT_WORKLOADS = {
    "segment-lstm-16k": {
        "checkpoint": "lstm.npz",
        "inputs": {"rate": 16000, "channels": 1, "sessions": [
            {"trials": [[700, "clean"], [2600, "clean"], [4300, "noise5"]]},
            {"trials": [[14800, "clean"]]},
            {"trials": [[3100, "bandreject"], [5200, "fast"], [900, "noise5"]]},
            {"trials": [[7400, "noise5"], [2200, "fast"], [3600, "bandreject"]]},
        ]},
    },
    "segment-cnn-44k": {
        "checkpoint": "cnn.npz",
        "inputs": {"rate": 44100, "channels": 2, "sessions": [
            {"trials": [[800, "clean"], [3000, "noise5"], [6500, "clean"]]},
            {"trials": [[14600, "clean"]]},
            {"trials": [[4200, "bandreject"], [5600, "fast"], [2400, "noise5"], [950, "clean"]]},
            {"trials": [[9000, "noise5"], [3300, "fast"], [4800, "bandreject"]]},
            {"trials": [[5400, "fast"], [7800, "clean"], [3700, "noise5"], [2900, "bandreject"]]},
            {"trials": [[12000, "noise5"], [4400, "fast"], [6100, "bandreject"], [1600, "fast"]]},
            {"trials": [[8600, "bandreject"], [3900, "noise5"], [5000, "fast"]]},
            # `read_wav` rejects WAVE_FORMAT_EXTENSIBLE on the fmt header
            # alone, so `ddkseg segment` exits 2 on this session in every
            # round of every run, whatever the seed draws for its samples.
            {"trials": [[2000, "clean"], [3000, "noise5"]], "extensible": True},
        ]},
    },
}
TRAIN_WORKLOAD = {
    "epochs": 3,
    "batch_size": 4,
    "lr": "1e-3",
    # Durations of k.5 s give exactly k one-second windows whatever start
    # shift (< 1000 samples) training draws.
    "corpus": {"train": [[2500, c] for c in ("clean", "fast", "clean", "noise5", "clean", "bandreject")],
               "val": [[2500, "clean"], [2500, "fast"]]},
    # Segmented (two rounds) with the reference LSTM checkpoint before the
    # timed rounds, so that the shared quality metrics are defined here too.
    "quality": {"rate": 16000, "channels": 1, "sessions": [
        {"trials": [[2600, "clean"], [3400, "noise5"], [4100, "fast"]]},
        {"trials": [[1800, "bandreject"], [5200, "clean"], [3000, "noise5"]]},
    ]},
}
WORKLOADS = [*SEGMENT_WORKLOADS, "train-lstm"]

# Quality floors against the generator's truth; a round below them is wrong.
# rate_r has none: Pearson r over about ten trials follows a single trial's
# error, and a sound checkpoint read 0.41 on one seed (see README).
FLOORS = {"vot_f1": 0.6, "vowel_f1": 0.6, "boundary_hit_20ms": 0.6}
# Reported next to the traced functions' metrics by the traced run.
EXTRA_PER_LAYER_UNITS = {"train.val_loss": "nats", "trace.round_s": "s", "host.workload_s": "s"}
END_TO_END_UNITS = {"setup_s": "s", "audio_s_per_s": "s/s", "session_rtf_p50": "ratio", "vot_f1": "ratio",
                    "vowel_f1": "ratio", "boundary_hit_20ms": "ratio", "rate_r": "ratio", "peak_rss_mb": "MB"}


class Run:
    """State of one benchmark run: the CLI entry point, work directory and findings."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.problems: list[str] = []
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        # Only the operations of the timed rounds count as attempted, so that
        # the failed share is the same in every run whatever its round count.
        # A failure outside them is a failed check.
        self.counting = False
        self.round_walls: list[float] = []
        self.host_s: list[float] = []  # times of hostspeed's workload in the timed rounds

    def call(self, argv: list[str], op: str) -> tuple[bool, float]:
        """Run one ddkseg command in this process; returns (succeeded, seconds).

        Inside the timed rounds the seconds are reference seconds: the host
        workload is timed just before and just after the command, and the
        command's wall time is scaled by REFERENCE_S over their mean
        (hostspeed.py). Outside them they are wall seconds.
        """
        import hostspeed

        host = hostspeed.workload_s() if self.counting else None
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        seconds = time.perf_counter() - start
        if host is not None:
            host = (host + hostspeed.workload_s()) / 2
            self.host_s.append(host)
            seconds *= hostspeed.REFERENCE_S / host
        if code != 0:
            self.failures.setdefault(op, f"exit {code}: {err.getvalue().strip()}")
            self.check(self.counting, f"{op} failed outside the timed rounds")
        if self.counting:
            self.attempted += 1
            self.failed += code != 0
        return code == 0, seconds

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def segment_round(run: Run, inputs: Path, record: dict, checkpoint: Path, out: Path) -> dict:
    """One round: `segment` per session, then `rate` and `eval` over all outputs."""
    pred = out / "pred"
    pred.mkdir(parents=True)
    times, audio_s, ok_sessions = {}, 0.0, []
    start = time.perf_counter()
    for session in record["sessions"]:
        wavs = sorted(str(p) for p in (inputs / session["dir"]).glob("*.wav"))
        op = f"segment {session['dir']}"
        ok, times[op] = run.call(["segment", *wavs, "--checkpoint", str(checkpoint), "--out-dir", str(pred)], op)
        if ok:
            audio_s += session["audio_s"]
            ok_sessions.append(session)
    csvs = sorted(str(p) for p in pred.glob("*.csv"))
    _, times["rate"] = run.call(["rate", *csvs, "--out", str(out / "rates.csv")], "rate")
    _, times["eval"] = run.call(["eval", "--pred", str(pred), "--target", str(inputs / "truth"),
                                 "--out", str(out / "eval.csv")], "eval")
    wall = time.perf_counter() - start
    return {"wall": wall, "times": times, "audio_s": audio_s, "sessions": ok_sessions,
            "csvs": {Path(p).name: Path(p).read_bytes() for p in csvs}}


def check_truth_tools(run: Run, inputs: Path, record: dict) -> None:
    """`ddkseg rate` on the truth gives count / articulation time, and
    `ddkseg eval` of the truth against itself gives F1 = 1 and MAD = 0."""
    import scoring

    truth = inputs / "truth"
    out = run.work / "truth-check"
    out.mkdir()
    trials = {t["name"]: t for s in record["sessions"] for t in s["trials"]}
    run.call(["rate", *sorted(str(p) for p in truth.glob("*.csv")), "--out", str(out / "rates.csv")], "rate truth")
    with open(out / "rates.csv", newline="") as fh:
        rows = {Path(r["path"]).stem: r for r in csv.DictReader(fh)}
    for name, trial in trials.items():
        row = rows.get(name, {})
        n_vot = sum(1 for s in trial["segments"] if s[2] == "vot")
        run.check(row.get("status") == "ok" and math.isclose(float(row["rate_syll_per_s"]), trial["rate"],
                                                             rel_tol=1e-5)
                  and int(row["raw_count"]) == int(row["corrected_count"]) == n_vot,
                  f"ddkseg rate on truth {name}: {row} (expected {trial['rate']:.6g} from {n_vot} syllables)")
    run.call(["eval", "--pred", str(truth), "--target", str(truth), "--out", str(out / "eval.csv")], "eval truth")
    report = scoring.read_eval(out / "eval.csv")
    expect = {"vot_f1": 1.0, "vowel_f1": 1.0, "vot_onset_mad_ms": 0.0,
              "vot_offset_vowel_onset_mad_ms": 0.0, "vowel_offset_mad_ms": 0.0}
    for key, value in expect.items():
        run.check(report.get(key) == value, f"ddkseg eval of truth against itself: {key}={report.get(key)}")


def score_round(run: Run, result: dict, out: Path) -> dict:
    """Check the CSVs of one round and score them against the generator's truth."""
    import scoring

    pairs, rates = [], []
    predicted_rates = scoring.read_rates(out / "rates.csv")
    for session in result["sessions"]:
        for trial in session["trials"]:
            name = trial["name"]
            try:
                pred = scoring.read_segments(out / "pred" / f"{name}.csv", trial["duration_ms"])
            except (OSError, ValueError) as exc:
                run.check(False, f"segment CSV {name}: {exc}")
                continue
            truth = [tuple(s) for s in trial["segments"]]
            pairs.append((pred, truth))
            if predicted_rates.get(name) is not None:
                rates.append((predicted_rates[name], trial["rate"]))
    run.check("vot_f1" in scoring.read_eval(out / "eval.csv"), "ddkseg eval wrote no vot_f1")
    quality = {"vot_f1": scoring.segment_f1(pairs, "vot"), "vowel_f1": scoring.segment_f1(pairs, "vowel"),
               "boundary_hit_20ms": scoring.boundary_hits(pairs),
               "rate_r": scoring.pearson([p for p, _ in rates], [t for _, t in rates])}
    run.check(quality["rate_r"] is not None, "rate_r undefined: fewer than three trials with a rate")
    for key, floor in FLOORS.items():
        run.check(quality[key] >= floor, f"{key}={quality[key]} below floor {floor}")
    return quality


def run_segment_stage(run: Run, inputs: Path, record: dict, checkpoint: Path,
                      seconds: float) -> tuple[list[dict], dict]:
    """At least two whole rounds, and more while one as long as the last would
    end within `seconds`; returns (rounds, quality)."""
    rounds: list[dict] = []
    quality = {}
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start + rounds[-1]["wall"] <= seconds:
        out = run.work / f"round{len(rounds)}"
        result = segment_round(run, inputs, record, checkpoint, out)
        if not rounds:
            quality = score_round(run, result, out)
        else:
            run.check(result["csvs"] == rounds[0]["csvs"], f"round {len(rounds)} CSVs differ from round 0")
            shutil.rmtree(out)
        rounds.append(result)
    return rounds, quality


def train_round(run: Run, manifest: Path, out: Path) -> float:
    cfg = TRAIN_WORKLOAD
    _, seconds = run.call(["train", "--manifest", str(manifest), "--arch", "lstm", "--out-dir", str(out),
                           "--seed", "0", "--epochs", str(cfg["epochs"]), "--patience", str(cfg["epochs"]),
                           "--batch-size", str(cfg["batch_size"]), "--lr", cfg["lr"]], "train")
    return seconds


@contextlib.contextmanager
def count_trained_frames():
    """Count the frames (1 ms each) of every batch that `Segmenter.backward`
    sees, so the training audio credited is what the program trained on."""
    from ddkseg.models import Segmenter

    seen = [0]
    original = Segmenter.backward

    def backward(self, dlogits):
        seen[0] += dlogits.shape[0] * dlogits.shape[1]
        return original(self, dlogits)

    Segmenter.backward = backward
    try:
        yield seen
    finally:
        Segmenter.backward = original


def check_training(run: Run, out: Path, load_checkpoint, majority_share: float) -> float | None:
    """Training learned and its checkpoint loads; returns the last val_loss.

    Both losses fall from the first epoch to the last. The last val_loss is
    below ln 3, the weighted cross-entropy of a uniform prediction whatever
    the class weights (the loss is normalised by the total weight), and the
    last val frame accuracy beats always predicting the most common class
    of the validation frames. The untrained seed-0 model is at both
    baselines (see README), so a model that learned nothing fails.
    """
    try:
        with open(out / "train_log.csv", newline="") as fh:
            log = list(csv.DictReader(fh))
        model, _ = load_checkpoint(out / "checkpoint.npz")
    except Exception as exc:  # any failure to read back what train wrote is a wrong output
        run.check(False, f"train outputs unreadable: {exc!r}")
        return None
    run.check(len(log) == TRAIN_WORKLOAD["epochs"], f"train_log has {len(log)} epochs")
    run.check(model.cfg.architecture == "lstm", "trained checkpoint is not an LSTM")
    first, last = float(log[0]["train_loss"]), float(log[-1]["train_loss"])
    run.check(last < first, f"train_loss did not fall: {first} -> {last}")
    first_val, val_loss = float(log[0]["val_loss"]), float(log[-1]["val_loss"])
    run.check(val_loss < first_val, f"val_loss did not fall: {first_val} -> {val_loss}")
    run.check(val_loss < math.log(3.0), f"val_loss {val_loss} not below ln 3, a uniform prediction's")
    val_acc = float(log[-1]["val_frame_acc"])
    run.check(val_acc > majority_share,
              f"val_frame_acc {val_acc} not above {majority_share:.4f}, the most common class's share")
    return val_loss


def measure_setup(checkpoint: Path | None) -> float:
    """Median time, in reference seconds, of a fresh process that imports
    ddkseg (and loads the checkpoint); each launch is scaled by a time of the
    host workload taken just before it."""
    import hostspeed

    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ddkseg, ddkseg.models\n"
            "if not ddkseg.__file__.startswith(sys.argv[1]): sys.exit(f'ddkseg imported from {ddkseg.__file__}')\n"
            "if len(sys.argv) > 2: ddkseg.models.load_checkpoint(sys.argv[2])\n")
    argv = [sys.executable, "-c", code, str(SRC)] + ([str(checkpoint)] if checkpoint else [])
    times = []
    for _ in range(SETUP_REPEATS):
        host = hostspeed.workload_s()
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - start) / host)
    return statistics.median(times) * hostspeed.REFERENCE_S


def generate(name: str, kind: str, plan: dict, seed: int) -> tuple[Path, dict]:
    """Make the inputs in a child process, so their memory stays out of this one's peak."""
    import synthgen
    subprocess.run([sys.executable, str(BENCH / "synthgen.py"), str(CACHE), name, kind, json.dumps(plan), str(seed)],
                   check=True)
    return synthgen.cached_inputs(CACHE, name, kind, plan, seed)  # now only reads the truth record


@contextlib.contextmanager
def timed_rounds(run: Run, tracer):
    """Count operations, and trace them when asked, only inside the timed rounds."""
    run.counting = True
    if tracer:
        tracer.install()
    try:
        yield
    finally:
        run.counting = False
        if tracer:
            tracer.uninstall()


def run_workload(args, run: Run) -> dict:
    from ddkseg.models import load_checkpoint
    import scoring

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    metrics: dict[str, float] = {}
    if args.workload in SEGMENT_WORKLOADS:
        spec = SEGMENT_WORKLOADS[args.workload]
        inputs, record = generate(args.workload, "sessions", spec["inputs"], args.seed)
        checkpoint = CHECKPOINTS / spec["checkpoint"]
        if not args.trace:
            metrics["setup_s"] = measure_setup(checkpoint)
        check_truth_tools(run, inputs, record)
        with timed_rounds(run, tracer):
            rounds, quality = run_segment_stage(run, inputs, record, checkpoint, args.seconds)
        # Each command's median time over the run's rounds, in reference seconds.
        times = {op: statistics.median(r["times"][op] for r in rounds) for op in rounds[0]["times"]}
        metrics["audio_s_per_s"] = rounds[0]["audio_s"] / sum(times.values())
        metrics["session_rtf_p50"] = statistics.median(times[f"segment {s['dir']}"] / s["audio_s"]
                                                       for s in rounds[0]["sessions"])
    else:
        corpus, corpus_record = generate("train-lstm-corpus", "corpus", TRAIN_WORKLOAD["corpus"], args.seed)
        inputs, record = generate("train-lstm-quality", "sessions", TRAIN_WORKLOAD["quality"], args.seed)
        if not args.trace:
            metrics["setup_s"] = measure_setup(None)
        check_truth_tools(run, inputs, record)
        _, quality = run_segment_stage(run, inputs, record, CHECKPOINTS / "lstm.npz", 0.0)
        # Every epoch trains on all whole one-second windows of the training trials.
        expected_s = TRAIN_WORKLOAD["epochs"] * sum(t["duration_ms"] // 1000 for t in corpus_record["train"])
        majority = scoring.majority_frame_share(corpus_record["val"])
        rounds, times, val_losses = [], [], []
        with timed_rounds(run, tracer), count_trained_frames() as frames:
            start = time.perf_counter()
            while len(rounds) < 2 or time.perf_counter() - start + rounds[-1]["wall"] <= args.seconds:
                out = run.work / f"train{len(rounds)}"
                before, round_start = frames[0], time.perf_counter()
                times.append(train_round(run, corpus / "manifest.csv", out))
                rounds.append({"wall": time.perf_counter() - round_start})
                trained_s = (frames[0] - before) / 1000.0
                run.check(trained_s == expected_s,
                          f"train round {len(rounds) - 1} trained on {trained_s} s of windows, not {expected_s}")
                val_losses.append(check_training(run, out, load_checkpoint, majority))
                shutil.rmtree(out, ignore_errors=True)
        # Every round trained on expected_s seconds of windows (checked above).
        metrics["audio_s_per_s"] = expected_s / statistics.median(times)
        metrics["session_rtf_p50"] = statistics.median(times) / expected_s
        metrics["train.val_loss"] = val_losses[-1]
    run.round_walls = [r["wall"] for r in rounds]
    # An undefined score (no rate pairs) reads 0; its floor check has already failed.
    metrics.update({k: 0.0 if v is None else v for k, v in quality.items()})
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        per_layer = tracer.metrics(len(rounds))
        per_layer["train.val_loss"] = metrics.get("train.val_loss") or 0.0
        per_layer["trace.round_s"] = statistics.mean(r["wall"] for r in rounds)
        per_layer["host.workload_s"] = statistics.median(run.host_s)
        units = {**tracing.per_layer_metric_units(), **EXTRA_PER_LAYER_UNITS}
        return {k: {"value": per_layer[k], "unit": u} for k, u in units.items()}
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ddkseg" / "__init__.py").is_file():
        print(f"bench: no ddkseg sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: on a 2-core host a second
    # thread makes neither model faster, and it makes every timing swing
    # with whatever else holds the other core (see README).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import ddkseg.cli
    if not Path(ddkseg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: ddkseg imported from {ddkseg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # Configure logging before the CLI does, so its handler writes to the real
    # stderr and per-epoch training logs stay quiet.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(ddkseg.cli, work)
    try:
        metrics = run_workload(args, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"bench: {args.workload} seed {args.seed}: round walls (s) "
          + " ".join(f"{w:.3f}" for w in run.round_walls)
          + f"; host workload {statistics.median(run.host_s):.4g} s (median)", file=sys.stderr)
    for op, message in run.failures.items():
        print(f"bench: {op} failed ({message})", file=sys.stderr)
    for problem in run.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
