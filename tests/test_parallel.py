"""predict_file shares a CNN file's full windows between the calling thread
and one helper thread per further usable CPU (models._Helpers), and runs
an LSTM file's stacks on the calling thread (each BiLSTM forward may start
one helper of its own, see ddkseg.nn.lstm): the output does not
depend on the CPU count, an error in any thread reaches the caller, no
thread outlives the call, no input samples are written, and a helper holds
no job that has run."""

import functools
import os
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import TINY_LSTM, set_cpus

from ddkseg import models
from ddkseg.audio import MODEL_RATE_HZ, SAMPLES_PER_MS, Waveform, cut_windows
from ddkseg.models import Segmenter, load_checkpoint, predict_file
from ddkseg.nn import threads
from ddkseg.synth import TrialSpec, generate_trial

CHECKPOINTS = Path(__file__).resolve().parents[1] / "bench" / "checkpoints"


@pytest.fixture(scope="module")
def cnn_model():
    return load_checkpoint(CHECKPOINTS / "cnn.npz")[0]


@pytest.fixture(scope="module")
def trial():
    wave, _ = generate_trial(TrialSpec(syllable_count=45, seed=4))
    assert wave.duration_ms >= 11_000
    return wave.samples


def _wave(trial, full, tail):
    # Windows are 1000 ms every 800 ms, the last one ending at the last
    # frame: 800k + 200 ms holds k full windows, 800k + 600 ms k + 1.
    duration_ms = 800 * full + (600 if tail else 200)
    wave = Waveform(trial[:duration_ms * SAMPLES_PER_MS], MODEL_RATE_HZ)
    assert len(cut_windows(wave)) == full + tail
    return wave


@pytest.mark.parametrize("full", [1, 2, 5, 13])
@pytest.mark.parametrize("tail", [False, True])
def test_threaded_predict_file_is_bit_identical_to_one_thread(monkeypatch, cnn_model, trial, full, tail):
    wave = _wave(trial, full, tail)
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    preds = {}
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        started.clear()
        preds[cpus] = predict_file(cnn_model, wave)
        assert len(started) == min(cpus, full + tail) - 1
    for cpus in (2, 3):
        np.testing.assert_array_equal(preds[cpus].probs, preds[1].probs)
        np.testing.assert_array_equal(preds[cpus].labels, preds[1].labels)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_lstm_stacks_run_on_the_calling_thread(monkeypatch, trial, cpus):
    # 9 full windows, the last ending at the last frame: stacks of 4, 4 and
    # 1 windows, the last a view of the file's samples, and nothing through
    # predict_window. The only threads started are each BiLSTM forward's
    # projection helper, with BLAS on one thread and a second CPU.
    model = Segmenter(TINY_LSTM, seed=1)
    wave = _wave(trial, 8, True)
    started, forwards, window_calls = [], [], []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def forward(self, x, *args, **kwargs):
        assert threading.current_thread() is threading.main_thread()
        forwards.append((x.shape[0], x.shape[2], np.shares_memory(x, wave.samples)))
        return original_forward(self, x, *args, **kwargs)

    def predict_window(model, window):
        window_calls.append(len(window.samples))
        return original_window(model, window)

    original_forward, original_window = Segmenter.forward, models.predict_window
    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(Segmenter, "forward", forward)
    monkeypatch.setattr(models, "predict_window", predict_window)
    set_cpus(monkeypatch, cpus)
    predict_file(model, wave)
    full = 1000 * SAMPLES_PER_MS
    assert len(started) == (3 * TINY_LSTM.lstm_layers if cpus > 1 else 0)
    assert forwards == [(4, full, False), (4, full, False), (1, full, True)]
    assert window_calls == []


def test_every_item_runs_once_under_frequent_thread_switches(monkeypatch):
    # Six threads switching as often as the interpreter allows: an item
    # taken twice or skipped shows in `calls`.
    set_cpus(monkeypatch, 6)
    calls = []
    results = [None] * 500

    def work(i):
        calls.append(i)
        time.sleep(0)
        results[i] = i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with models._Helpers(500) as helpers:
            for i in range(500):
                helpers.submit(functools.partial(work, i))
            helpers.help()
    finally:
        sys.setswitchinterval(interval)
    assert results == [i * i for i in range(500)]
    assert sorted(calls) == list(range(500))


def _summing(array):
    return lambda: array.sum()


@pytest.mark.parametrize("bound", [0, 1])
def test_a_helper_drops_each_job_once_it_has_run(monkeypatch, bound):
    # A helper that keeps its last job until the next one arrives keeps
    # that job's arrays alive between jobs: in training that raised the
    # peak RSS.
    set_cpus(monkeypatch, 2)
    big = np.ones(1 << 20)
    alive = weakref.ref(big)
    with models._Helpers(2, bound=bound) as helpers:
        helpers.submit(_summing(big))
        del big
        helpers.wait()
        assert alive() is None


def test_a_thread_that_cannot_start_leaves_none_running(monkeypatch):
    set_cpus(monkeypatch, 3)
    started = []
    original = threading.Thread.start

    def start(self):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        with models._Helpers(3):
            pass
    started[0].join(timeout=30)
    assert not started[0].is_alive()


def test_cpu_count_where_affinity_is_unknown(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert threads._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert threads._usable_cpus() == 1


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_error_in_any_thread_reaches_the_caller(monkeypatch, cnn_model, trial, failing):
    set_cpus(monkeypatch, 3)
    original = Segmenter.forward
    helper_started = threading.Event()

    def forward(self, x, *args, **kwargs):
        # The caller waits until a helper holds a window, so both kinds of
        # thread are sure to run a forward.
        if threading.current_thread() is threading.main_thread():
            assert helper_started.wait(timeout=30)
            if failing == "caller":
                raise RuntimeError("caller's forward failed")
        else:
            helper_started.set()
            if failing == "helper":
                raise RuntimeError("helper's forward failed")
        return original(self, x, *args, **kwargs)

    monkeypatch.setattr(Segmenter, "forward", forward)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing}'s forward failed"):
        predict_file(cnn_model, _wave(trial, 5, True))
    assert threading.active_count() == before


@pytest.mark.parametrize("name", ["lstm", "cnn"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [MODEL_RATE_HZ, 44100])
def test_predict_file_writes_no_samples(monkeypatch, trial, name, dtype, rate):
    # The windows are views of the model-rate samples, and a float64 model
    # reads them without a copy, so any layer writing into its input would
    # show here.
    stored, _ = load_checkpoint(CHECKPOINTS / f"{name}.npz")
    model = Segmenter(stored.cfg, dtype=dtype)
    model.restore(stored.snapshot())
    resampled = []
    original = models.resample

    def resample(wave, target_hz):
        out = original(wave, target_hz)
        resampled.append((out, out.samples.copy()))
        return out

    monkeypatch.setattr(models, "resample", resample)
    wave = Waveform(trial[:2600 * SAMPLES_PER_MS], rate)
    before = wave.samples.copy()
    predict_file(model, wave)
    np.testing.assert_array_equal(wave.samples, before)
    (wave16, before16), = resampled
    np.testing.assert_array_equal(wave16.samples, before16)
