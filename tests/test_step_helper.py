"""Segmenter.backward hands its layers' weight gradients to one helper
thread of its own, and each BiLSTM forward its input projection of the
block after the one running to another, when two or more CPUs are usable
and BLAS runs on one thread: the loss, gradients and training runs do not
depend on the CPU count, a job's error reaches the caller with no thread
and no layer cache left, one step's gradients survive the next step, the
gradients are complete when Segmenter.backward returns, and each step
starts exactly one backward helper, or none beside a threaded BLAS."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
from conftest import SMALL_LSTM, TINY_CNN, TINY_LSTM, assert_same_bits, held, set_cpus, step_inputs

from ddkseg.models import ModelConfig, Segmenter
from ddkseg.nn import Layer
from ddkseg.nn import lstm as lstm_module
from ddkseg.nn import softmax_cross_entropy
from ddkseg.synth import Trial, TrialSpec, generate_trial
from ddkseg.train import TrainConfig, train_model, write_train_log

CONFIGS = {"tiny_lstm": TINY_LSTM, "tiny_cnn": TINY_CNN, "small_lstm": SMALL_LSTM, "default_lstm": ModelConfig()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", CONFIGS)
def test_loss_and_grads_do_not_depend_on_cpu_count(monkeypatch, name, dtype):
    model = Segmenter(CONFIGS[name], seed=2, dtype=dtype)
    x, y = step_inputs(4, seed=3, dtype=dtype)
    weights = np.array([1.0, 2.5, 1.5])
    steps = {}
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        steps[cpus] = model.loss_and_grads(x, y, weights, rng=np.random.default_rng(4))
    loss, grads = steps[1]
    for cpus in (2, 3):
        assert steps[cpus][0] == loss
        assert steps[cpus][1].keys() == grads.keys()
        for key, want in grads.items():
            assert_same_bits(steps[cpus][1][key], want)


@pytest.mark.parametrize("name", ["tiny_cnn", "small_lstm", "default_lstm"])
def test_loss_and_grads_leave_the_batch_unchanged(name):
    # A train forward may write its output into its input's memory
    # (ddkseg.nn.layers), but conv 0 writes into a new array: the caller's
    # batch survives the step, so a second step on it gives the same bits.
    model = Segmenter(CONFIGS[name], seed=2)
    x, y = step_inputs(4, seed=7)
    before = x.copy()
    steps = [model.loss_and_grads(x, y, rng=np.random.default_rng(8)) for _ in range(2)]
    assert_same_bits(x, before)
    (loss, grads), (loss_again, grads_again) = steps
    assert loss_again == loss and grads_again.keys() == grads.keys()
    for key, want in grads.items():
        assert_same_bits(grads_again[key], want)


def test_steps_under_frequent_thread_switches(monkeypatch):
    # The caller and the helper switching as often as the interpreter
    # allows: a job run twice, skipped, or read before it has run would
    # change the bits.
    model = Segmenter(TINY_LSTM, seed=2)
    x, y = step_inputs(4, seed=5)
    set_cpus(monkeypatch, 1)
    loss, grads = model.loss_and_grads(x, y, rng=np.random.default_rng(6))
    set_cpus(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        steps = [model.loss_and_grads(x, y, rng=np.random.default_rng(6)) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    for step_loss, step_grads in steps:
        assert step_loss == loss
        for key, want in grads.items():
            assert_same_bits(step_grads[key], want)


def test_training_does_not_depend_on_cpu_count(monkeypatch, tmp_path):
    trials = [Trial(f"t{seed}", *generate_trial(TrialSpec(syllable_count=6, seed=seed))) for seed in range(1, 5)]
    model_cfg = dataclasses.replace(TINY_LSTM, dropout_p=0.2)
    cfg = TrainConfig(batch_size=2, lr=1e-2, max_epochs=2, patience=2, seed=7)
    arrays = {}
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        run = train_model(trials[:3], trials[3:], model_cfg, cfg)
        arrays[cpus] = run.model.checkpoint_arrays()
        write_train_log(tmp_path / f"log{cpus}.csv", run.log)
    assert arrays[2].keys() == arrays[1].keys()
    for key, want in arrays[1].items():
        assert_same_bits(arrays[2][key], want)
    assert (tmp_path / "log1.csv").read_bytes() == (tmp_path / "log2.csv").read_bytes()


# TINY_LSTM's jobs handed to Layer._later, in order: none in the forward,
# whose BiLSTMs project on helpers of their own, then in the backward the
# weight gradients of Linear, Linear, each BiLSTM's recurrent then input
# weights (the second BiLSTM's first), and the two convs.
FORWARD_JOBS = 0


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("failing", ["forward_job", "backward_job"])
def test_error_in_a_job_reaches_the_caller(monkeypatch, cpus, failing):
    set_cpus(monkeypatch, cpus)
    model = Segmenter(TINY_LSTM, seed=1)
    x, y = step_inputs(2)
    ran_on = []

    def failed_job(*args):
        ran_on.append(threading.current_thread())
        raise RuntimeError("job failed")

    with monkeypatch.context() as patch:
        if failing == "forward_job":
            # The first BiLSTM's projection of its block 1, forward
            # direction: the third _project call, the first a helper runs.
            original, calls = lstm_module._project, []

            def _project(*args):
                calls.append(args)
                (failed_job if len(calls) == 3 else original)(*args)

            patch.setattr(lstm_module, "_project", _project)
        else:
            # The second BiLSTM's recurrent weights' gradients.
            original, handed = Layer._later, []

            def _later(self, job):
                if len(handed) == FORWARD_JOBS + 2:
                    job = failed_job
                handed.append(job)
                original(self, job)

            patch.setattr(Layer, "_later", _later)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="job failed"):
            model.loss_and_grads(x, y, rng=np.random.default_rng(0))
        assert threading.active_count() == before
    assert (ran_on[0] is threading.main_thread()) == (cpus == 1)
    assert not held(model), f"left after the failed step: {held(model)}"
    loss, _ = model.loss_and_grads(x, y, rng=np.random.default_rng(0))
    assert np.isfinite(loss)


@pytest.mark.parametrize("cpus", [1, 2])
def test_next_step_leaves_returned_grads_alone(monkeypatch, cpus):
    # Callers may hold one step's gradients across later steps (the
    # finite-difference checks do).
    set_cpus(monkeypatch, cpus)
    model = Segmenter(SMALL_LSTM, seed=1)
    x, y = step_inputs(2, seed=1)
    _, first = model.loss_and_grads(x, y, rng=np.random.default_rng(0))
    kept = {k: v.copy() for k, v in first.items()}
    x2, y2 = step_inputs(2, seed=2)
    _, second = model.loss_and_grads(x2, y2, rng=np.random.default_rng(1))
    for key, want in kept.items():
        assert_same_bits(first[key], want)
        assert second[key] is not first[key]
    assert any(not np.array_equal(second[k], kept[k]) for k in kept)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_one_helper_per_step_and_none_on_one_cpu(monkeypatch, cpus):
    # Each step's Segmenter.backward starts one helper for the weight
    # gradients, after the forward, where each BiLSTM (two in TINY_LSTM,
    # each with a second block at T = 1000) starts one for its projections.
    started = []
    handed = []
    job_threads = set()

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    original = Layer._later

    def _later(self, job):
        def recorded():
            job_threads.add(threading.current_thread())
            job()
        handed.append(job)
        original(self, recorded)

    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(Layer, "_later", _later)
    model = Segmenter(TINY_LSTM, seed=1)
    x, y = step_inputs(2)
    lstms = TINY_LSTM.lstm_layers
    # A helper starts only beside a single-threaded BLAS: `reported` is
    # what the BLAS query returns, None where the library has no query.
    for reported in (1, 2, None):
        set_cpus(monkeypatch, cpus, blas=reported)
        helper = cpus > 1 and reported == 1
        started.clear()
        job_threads.clear()
        for _ in range(2):
            model.loss_and_grads(x, y, rng=np.random.default_rng(0))
        assert len(started) == (2 * (lstms + 1) if helper else 0), reported
        backward_helpers = {started[lstms], started[2 * lstms + 1]} if helper else {threading.main_thread()}
        assert job_threads == backward_helpers, reported
        # A train forward hands Layer._later nothing: each BiLSTM projects
        # on a helper of its own, by the same rule, as in eval.
        for train in (True, False):
            handed.clear()
            started.clear()
            model.forward(x, train=train, rng=np.random.default_rng(0))
            assert len(handed) == FORWARD_JOBS, (reported, train)
            assert len(started) == (lstms if helper else 0), (reported, train)
        assert not held(model)  # the eval forward dropped the train forward's caches


def test_gradients_are_complete_when_backward_returns(monkeypatch):
    # Outside a step too: Segmenter.backward joins its helper before it
    # returns, even when every job on it lags, so the gradients it leaves
    # are those of loss_and_grads, bit for bit, with no thread left.
    set_cpus(monkeypatch, 2)
    model = Segmenter(TINY_LSTM, seed=1)
    x, y = step_inputs(2, seed=4)
    loss, want = model.loss_and_grads(x, y, rng=np.random.default_rng(5))
    want = {k: v.copy() for k, v in want.items()}
    original = Layer._later

    def _later(self, job):
        def late():
            time.sleep(0.01)
            job()
        original(self, late)

    monkeypatch.setattr(Layer, "_later", _later)
    before = threading.active_count()
    logits = model.forward(x, train=True, rng=np.random.default_rng(5))
    loss_again, dlogits = softmax_cross_entropy(logits, y)
    model.backward(dlogits)
    assert threading.active_count() == before
    grads = model.named_grads()
    assert loss_again == loss and grads.keys() == want.keys()
    for key, value in want.items():
        assert_same_bits(grads[key], value)
    assert not held(model)
