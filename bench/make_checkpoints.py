"""Train the two reference checkpoints the segment workloads load.

    python3 bench/make_checkpoints.py

Run from the repository root. It writes a corpus from the benchmark's
generator, trains the default LSTM and the default CNN on it with
`ddkseg train` (augmentation on), and copies each checkpoint.npz to
bench/checkpoints/{lstm,cnn}.npz together with its training log. The two
trainings run side by side, one BLAS thread each.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import synthgen  # noqa: E402

SEED = 20220629
EPOCHS = 24
CORPUS_PLAN = {
    "train": [[3500, "fast" if i % 4 == 3 else "clean"] for i in range(60)],
    "val": [[3500, "fast" if i % 4 == 3 else "clean"] for i in range(12)],
}


def main() -> int:
    root = BENCH.parent
    work = BENCH / ".work" / "checkpoints"
    shutil.rmtree(work, ignore_errors=True)
    corpus = work / "corpus"
    corpus.mkdir(parents=True)
    synthgen.write_corpus(corpus, CORPUS_PLAN, SEED)
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    started = time.perf_counter()
    procs = {}
    for arch in ("lstm", "cnn"):
        cmd = [sys.executable, "-m", "ddkseg.cli", "train", "--manifest", str(corpus / "manifest.csv"),
               "--arch", arch, "--out-dir", str(work / arch), "--seed", "0", "--epochs", str(EPOCHS),
               "--patience", str(EPOCHS), "--batch-size", "16", "--lr", "1e-3"]
        procs[arch] = subprocess.Popen(cmd, env=env, cwd=root)
    failed = [arch for arch, proc in procs.items() if proc.wait() != 0]
    if failed:
        print(f"training failed for {failed}", file=sys.stderr)
        return 1
    out = BENCH / "checkpoints"
    out.mkdir(exist_ok=True)
    for arch in procs:
        shutil.copyfile(work / arch / "checkpoint.npz", out / f"{arch}.npz")
        shutil.copyfile(work / arch / "train_log.csv", out / f"{arch}_train_log.csv")
    print(f"checkpoints written to {out} in {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
