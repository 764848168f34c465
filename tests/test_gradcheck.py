"""Finite-difference validation of every backward pass.

Each check runs in float64, in train mode (the only mode that keeps what
backward needs), with dropout disabled. Losses are random linear
projections of the output (for bare stacks) or the softmax cross-entropy
(for classifier heads), so every parameter receives a healthy gradient.
"""

import numpy as np
import pytest
from conftest import TINY_CNN, TINY_LSTM
from gradcheck import grad_check

from ddkseg import nn
from ddkseg.models import Segmenter


def projection_loss(stack, x, proj):
    """loss = sum(output * proj); gradient of output is proj."""
    def fn():
        out = stack.forward(x, train=True, rng=np.random.default_rng(0))
        loss = float((out * proj).sum())
        stack.backward((proj * np.ones_like(out)).astype(out.dtype))
        return loss, stack.named_grads()
    return fn


def test_linear_gradients(rng):
    lin = nn.Sequential([nn.Linear(5, 4, rng=rng, dtype=np.float64)])
    x = rng.standard_normal((6, 5))
    proj = rng.standard_normal((6, 4))
    err = grad_check(projection_loss(lin, x, proj), lin.named_params())
    assert err < 1e-6


@pytest.mark.parametrize("coords, selection", [(None, "random"), (7, "random"), (7, "largest")])
def test_non_contiguous_parameter_is_perturbed_where_the_model_reads_it(rng, coords, selection):
    # A weight held as a transposed view: reshape(-1) would copy it, so a
    # check that perturbed the flat copy never reached the model.
    lin = nn.Sequential([nn.Linear(5, 4, rng=rng, dtype=np.float64)])
    params = lin.layers[0].params
    params["weight"] = np.ascontiguousarray(params["weight"].T).T
    assert not params["weight"].flags.c_contiguous
    before = params["weight"].copy()
    x = rng.standard_normal((6, 5))
    proj = rng.standard_normal((6, 4))
    err = grad_check(projection_loss(lin, x, proj), lin.named_params(), coords_per_param=coords, selection=selection)
    assert err < 1e-6
    np.testing.assert_array_equal(params["weight"], before)


def test_conv_bn_train_mode_gradients(rng):
    # Batch statistics carry gradients too; running-moment updates do not
    # affect the train-mode loss so differencing stays valid. No activation
    # on top: batchnorm centers its output at zero, and differencing across
    # the leaky-ReLU kink would poison the comparison.
    stack = nn.Sequential([
        nn.Conv1d(1, 2, 3, stride=1, padding=1, rng=rng, dtype=np.float64),
        nn.BatchNorm1d(2, dtype=np.float64),
    ])
    x = rng.standard_normal((3, 1, 10))
    proj = rng.standard_normal((3, 2, 10))
    # The conv bias is excluded: train-mode batchnorm subtracts the channel
    # mean, so its true gradient is exactly zero and the check would only
    # compare differencing noise against the 1e-8 floor.
    params = {k: v for k, v in stack.named_params().items() if k != "0.bias"}
    err = grad_check(projection_loss(stack, x, proj), params)
    assert err < 1e-5


def test_dilated_strided_conv_gradients(rng):
    stack = nn.Sequential([
        nn.Conv1d(2, 2, 3, stride=2, padding=2, dilation=2, rng=rng, dtype=np.float64),
    ])
    x = rng.standard_normal((2, 2, 11))
    out = stack.forward(x)
    proj = rng.standard_normal(out.shape)
    err = grad_check(projection_loss(stack, x, proj), stack.named_params())
    assert err < 1e-6


def test_bilstm_two_layer_gradients(rng):
    # Two-layer bidirectional LSTM over 4 time steps.
    stack = nn.Sequential([
        nn.BiLSTM(2, 3, rng=rng, dtype=np.float64),
        nn.BiLSTM(6, 3, rng=rng, dtype=np.float64),
    ])
    x = rng.standard_normal((2, 4, 2))
    proj = rng.standard_normal((2, 4, 6))
    err = grad_check(projection_loss(stack, x, proj), stack.named_params())
    assert err < 1e-5


def test_classifier_head_gradients(rng):
    # Linear -> leaky -> linear under softmax cross-entropy.
    stack = nn.Sequential([
        nn.Linear(4, 6, rng=rng, dtype=np.float64),
        nn.LeakyReLU(),
        nn.Linear(6, 3, rng=rng, dtype=np.float64),
    ])
    x = rng.standard_normal((8, 4))
    y = rng.integers(0, 3, size=8)

    def fn():
        logits = stack.forward(x, train=True)
        loss, dlogits = nn.softmax_cross_entropy(logits, y)
        stack.backward(dlogits)
        return loss, stack.named_grads()

    err = grad_check(fn, stack.named_params())
    assert err < 1e-6


@pytest.mark.parametrize("cfg", [TINY_LSTM, TINY_CNN], ids=["lstm", "cnn"])
def test_whole_segmenter_gradients(cfg):
    # Segmenter.loss_and_grads end to end: conv stack, BatchNorm on batch
    # statistics, LeakyReLU, BiLSTM layers (for "lstm") and head, 20 frames.
    model = Segmenter(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(5)
    x = 0.5 * rng.standard_normal((2, 1, 320))
    y = rng.integers(0, 3, size=(2, 20))
    # Conv biases feed train-mode batchnorm, which subtracts their channel
    # mean: their true gradient is exactly zero (see the conv-bn check).
    params = {k: v for k, v in model.named_params().items() if not (k.startswith("conv.") and k.endswith(".bias"))}
    # The largest gradients of each tensor: differencing noise swamps the
    # smallest ones, and exhaustive differencing of the LSTM takes seconds.
    err = grad_check(lambda: model.loss_and_grads(x, y), params, coords_per_param=10, selection="largest")
    assert err < 1e-5
