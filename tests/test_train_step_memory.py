"""Memory contract of a training step: each layer keeps its backward cache
from its train forward until its own backward, and no longer."""

import time
import tracemalloc

import numpy as np
import pytest
from conftest import SMALL_LSTM, TINY_CNN, TINY_LSTM, assert_same_bits, held, set_cpus, step_inputs

from ddkseg.models import ModelConfig, Segmenter
from ddkseg.nn import Layer, Sequential
from ddkseg.postproc import N_CLASSES


@pytest.mark.parametrize("cfg", [TINY_LSTM, TINY_CNN, SMALL_LSTM], ids=["tiny_lstm", "tiny_cnn", "small_lstm"])
def test_loss_and_grads_leaves_no_cache(cfg):
    model = Segmenter(cfg, seed=1)
    x, y = step_inputs(2)
    model.forward(x, train=True, rng=np.random.default_rng(0))
    assert held(model), "a train forward kept nothing for backward"
    model.loss_and_grads(x, y, rng=np.random.default_rng(0))
    assert not held(model), f"caches left after the step: {held(model)}"
    with pytest.raises(ValueError, match=r"train=True"):
        model.backward(np.zeros((2, 1000, N_CLASSES), dtype=np.float32))


def test_small_lstm_step_traced_peak(monkeypatch):
    # One batch-4 step traces 13.6 MB at peak (numpy 2.4); caching the conv
    # columns, float dropout masks and tanh(cell) instead, and keeping
    # every cache until the next step, traced 22.5 MB. With 2 CPUs
    # Segmenter.backward's helper thread runs the weight-gradient jobs, whose arrays
    # live until it has run them; tracemalloc traces both threads. A
    # helper that falls behind must not let them pile up: with every
    # backward job waiting, they traced 16.7 MB.
    for cpus, stall in [(1, False), (2, False), (2, True)]:
        with monkeypatch.context() as patch:
            set_cpus(patch, cpus)
            if stall:
                _stall_helper_in_backward(patch)
            model = Segmenter(SMALL_LSTM, seed=0)
            x, y = step_inputs(4)
            model.loss_and_grads(x, y, rng=np.random.default_rng(1))  # first-call allocations
            tracemalloc.start()
            try:
                _, grads = model.loss_and_grads(x, y, rng=np.random.default_rng(1))
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 16e6, (cpus, stall)
        assert current <= sum(g.nbytes for g in grads.values()) + 16_000, (cpus, stall)


@pytest.mark.parametrize("cpus", [1, 2])
def test_default_lstm_step_traced_peak(monkeypatch, cpus):
    # One default-config batch-4 step traces 84 MB at peak (numpy 2.4),
    # inside the second BiLSTM's backward. With full-sequence projection
    # temporaries and every hidden state cached, it traced 99.7 MB, inside
    # that BiLSTM's train forward.
    set_cpus(monkeypatch, cpus)
    model = Segmenter(ModelConfig(), seed=0)
    x, y = step_inputs(4)
    model.loss_and_grads(x, y, rng=np.random.default_rng(1))  # first-call allocations
    tracemalloc.start()
    try:
        model.loss_and_grads(x, y, rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 90e6


def _stall_helper_in_backward(monkeypatch):
    """Hold each Segmenter.backward's first job on the helper for 0.5 s,
    while the caller goes on handing it jobs until it joins the helper."""
    first = []
    original_backward, original_later = Segmenter.backward, Layer._later

    def backward(self, dlogits):
        first.append(True)
        original_backward(self, dlogits)

    def _later(self, job):
        if first:
            first.clear()
            run = job

            def job():
                time.sleep(0.5)
                run()
        original_later(self, job)

    monkeypatch.setattr(Segmenter, "backward", backward)
    monkeypatch.setattr(Layer, "_later", _later)


def test_failed_step_leaves_the_model_as_a_fresh_one():
    # Targets out of range make the loss raise after the train forward has
    # filled every cache and the model's count of extra frames.
    model, fresh = Segmenter(TINY_LSTM, seed=1), Segmenter(TINY_LSTM, seed=1)
    x, y = step_inputs(2)
    with pytest.raises(ValueError, match="targets must lie in"):
        model.loss_and_grads(x, y + N_CLASSES, rng=np.random.default_rng(0))
    assert not held(model), f"left after the failed step: {held(model)}"
    state, want = vars(model), vars(fresh)
    assert state.keys() == want.keys()
    for key, value in want.items():
        if not isinstance(value, Sequential):  # layers: held() above
            assert state[key] == value, key
    loss, grads = model.loss_and_grads(x, y, rng=np.random.default_rng(0))
    want_loss, want_grads = fresh.loss_and_grads(x, y, rng=np.random.default_rng(0))
    assert loss == want_loss and grads.keys() == want_grads.keys()
    for key, value in want_grads.items():
        assert_same_bits(grads[key], value)
