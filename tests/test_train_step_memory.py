"""Memory contract of a training step: each layer keeps its backward cache
from its train forward until its own backward, and no longer."""

import tracemalloc

import numpy as np
import pytest
from conftest import SMALL_LSTM, TINY_CNN, TINY_LSTM

from ddkseg.models import Segmenter
from ddkseg.postproc import N_CLASSES


def _step_inputs(batch, seed=0):
    rng = np.random.default_rng(seed)
    x = (0.1 * rng.standard_normal((batch, 1, 16000))).astype(np.float32)
    return x, rng.integers(0, N_CLASSES, (batch, 1000))


def _held(model):
    return [(type(layer).__name__, k) for layer in model.conv.layers + model.head.layers
            for k, v in vars(layer).items() if k.startswith("_") and v is not None]


@pytest.mark.parametrize("cfg", [TINY_LSTM, TINY_CNN, SMALL_LSTM], ids=["tiny_lstm", "tiny_cnn", "small_lstm"])
def test_loss_and_grads_leaves_no_cache(cfg):
    model = Segmenter(cfg, seed=1)
    x, y = _step_inputs(2)
    model.forward(x, train=True, rng=np.random.default_rng(0))
    assert _held(model), "a train forward kept nothing for backward"
    model.loss_and_grads(x, y, rng=np.random.default_rng(0))
    assert not _held(model), f"caches left after the step: {_held(model)}"
    with pytest.raises(ValueError, match=r"train=True"):
        model.backward(np.zeros((2, 1000, N_CLASSES), dtype=np.float32))


def test_small_lstm_step_traced_peak():
    # One batch-4 step traces 13.6 MB at peak (numpy 2.4); caching the conv
    # columns, float dropout masks and tanh(cell) instead, and keeping
    # every cache until the next step, traced 22.5 MB.
    model = Segmenter(SMALL_LSTM, seed=0)
    x, y = _step_inputs(4)
    model.loss_and_grads(x, y, rng=np.random.default_rng(1))  # first-call allocations
    tracemalloc.start()
    try:
        _, grads = model.loss_and_grads(x, y, rng=np.random.default_rng(1))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert held <= sum(g.nbytes for g in grads.values()) + 16_000
