"""One rule for every helper thread (nn.threads._Helpers): helpers start
only while BLAS reports one thread, and none start where it reports more
or cannot be asked (None). predict_file's CNN windows and LSTM stacks, a
training step and an eval BiLSTM forward all follow it, and their outputs
are bit-identical whichever threads ran the jobs. The CLI runs each
command with BLAS on one thread and gives the caller its count back."""

import threading

import numpy as np
import pytest
from conftest import TINY_CNN, TINY_LSTM, assert_same_bits, set_cpus, step_inputs

from ddkseg import cli, nn
from ddkseg.audio import MODEL_RATE_HZ, SAMPLES_PER_MS, Waveform, cut_windows
from ddkseg.errors import DataError
from ddkseg.models import Segmenter, predict_file
from ddkseg.nn import threads

CASES = [(cpus, blas) for cpus in (1, 2, 3) for blas in (1, 2, None)]


def _run_cases(monkeypatch, run, helpers_at_one_blas_thread):
    """run() under every (CPUs, BLAS threads) case; checks the threads each
    started and returns the results by case."""
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    results = {}
    for cpus, blas in CASES:
        set_cpus(monkeypatch, cpus, blas=blas)
        started.clear()
        results[cpus, blas] = run()
        want = helpers_at_one_blas_thread(cpus) if blas == 1 else 0
        assert len(started) == want, (cpus, blas)
    return results


def _wave():
    # 800k + 600 ms of audio holds k + 1 full windows: 3 here.
    rng = np.random.default_rng(5)
    wave = Waveform(0.1 * rng.standard_normal(2200 * SAMPLES_PER_MS), MODEL_RATE_HZ)
    assert len(cut_windows(wave)) == 3
    return wave


@pytest.mark.parametrize("cfg", [TINY_CNN, TINY_LSTM], ids=["cnn", "lstm"])
def test_predict_file(monkeypatch, cfg):
    # A CNN gets one helper per further CPU, up to one per window; an LSTM
    # runs its one stack of 3 windows on the calling thread, where each
    # BiLSTM starts one helper of its own.
    model, wave = Segmenter(cfg, seed=1), _wave()
    lstm = bool(cfg.lstm_layers)
    results = _run_cases(monkeypatch, lambda: predict_file(model, wave),
                         lambda cpus: (cfg.lstm_layers if cpus > 1 else 0) if lstm else min(cpus, 3) - 1)
    want = results[1, 1]
    for pred in results.values():
        assert_same_bits(pred.probs, want.probs)
        assert_same_bits(pred.labels, want.labels)


def test_training_step(monkeypatch):
    model = Segmenter(TINY_LSTM, seed=2)
    x, y = step_inputs(2, seed=3)
    # Segmenter.backward starts one helper, and each BiLSTM forward one of
    # its own: both of TINY_LSTM's have a second block at T = 1000.
    results = _run_cases(monkeypatch, lambda: model.loss_and_grads(x, y, rng=np.random.default_rng(4)),
                         lambda cpus: 1 + TINY_LSTM.lstm_layers if cpus > 1 else 0)
    want_loss, want_grads = results[1, 1]
    for loss, grads in results.values():
        assert loss == want_loss
        assert grads.keys() == want_grads.keys()
        for key, want in want_grads.items():
            assert_same_bits(grads[key], want)


def test_eval_bilstm_forward(monkeypatch):
    rng = np.random.default_rng(6)
    lstm = nn.BiLSTM(6, 5, rng=rng)
    x = rng.standard_normal((2, 1000, 6)).astype(np.float32)
    results = _run_cases(monkeypatch, lambda: lstm.forward(x), lambda cpus: int(cpus > 1))
    for out in results.values():
        assert_same_bits(out, results[1, 1])


# cli.main pins BLAS to one thread around each command, so that helpers
# start in the default environment too, and restores the caller's count.

class _FakeBlas:
    """blas_threads as OpenBLAS at `threads` threads answers it, or as a
    BLAS without the setter (settable=False) does."""

    def __init__(self, threads_now=2, settable=True):
        self.threads = threads_now
        self.settable = settable
        self.calls = []

    def __call__(self, count=None):
        self.calls.append(count)
        if count is None:
            return self.threads
        if not self.settable:
            return None
        previous, self.threads = self.threads, count
        return previous


def _rate_argv(tmp_path):
    return ["rate", str(tmp_path / "in.csv"), "--out", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("outcome, code", [
    (None, cli.EXIT_OK), (DataError("bad data"), cli.EXIT_DATA), (RuntimeError("bug"), cli.EXIT_INTERNAL)])
def test_cli_runs_each_command_on_one_blas_thread(monkeypatch, tmp_path, outcome, code):
    blas = _FakeBlas(threads_now=2)
    monkeypatch.setattr(threads, "blas_threads", blas)
    seen = []

    def command(args):
        seen.append(blas.threads)
        if outcome is not None:
            raise outcome
        return cli.EXIT_OK

    monkeypatch.setitem(cli.COMMANDS, "rate", command)
    assert cli.main(_rate_argv(tmp_path)) == code
    assert seen == [1]
    assert blas.threads == 2 and blas.calls == [1, 2]


def test_cli_restores_blas_threads_when_the_command_is_interrupted(monkeypatch, tmp_path):
    blas = _FakeBlas(threads_now=3)
    monkeypatch.setattr(threads, "blas_threads", blas)

    def command(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.COMMANDS, "rate", command)
    with pytest.raises(KeyboardInterrupt):
        cli.main(_rate_argv(tmp_path))
    assert blas.threads == 3 and blas.calls == [1, 3]


def test_cli_sets_nothing_where_blas_has_no_setter(monkeypatch, tmp_path):
    blas = _FakeBlas(threads_now=2, settable=False)
    monkeypatch.setattr(threads, "blas_threads", blas)
    monkeypatch.setitem(cli.COMMANDS, "rate", lambda args: cli.EXIT_OK)
    assert cli.main(_rate_argv(tmp_path)) == cli.EXIT_OK
    assert blas.threads == 2 and blas.calls == [1]


def test_blas_setter_returns_the_previous_count_and_restores_it(monkeypatch, tmp_path):
    before = threads.blas_threads()
    if before is None:
        pytest.skip("numpy's BLAS exports no thread-count query")
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "rate", lambda args: seen.append(threads.blas_threads()) or cli.EXIT_OK)
    assert cli.main(_rate_argv(tmp_path)) == cli.EXIT_OK
    assert seen == [1] and threads.blas_threads() == before
    try:
        assert threads.blas_threads(1) == before
        assert threads.blas_threads() == 1
    finally:
        assert threads.blas_threads(before) == 1
    assert threads.blas_threads() == before
    monkeypatch.setattr(threads, "BLAS_SET_THREADS_SYMBOL", "no_such_blas_symbol_")
    assert threads.blas_threads(1) is None
    assert threads.blas_threads() == before
