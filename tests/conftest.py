import os
import threading

import numpy as np
import pytest

from ddkseg.models import ModelConfig
from ddkseg.nn import threads
from ddkseg.postproc import N_CLASSES

# Scaled-down clones of the two architectures (2 conv layers, stride
# product still 16) for exhaustive finite-difference checks.
TINY_LSTM = ModelConfig(
    conv_channels=(3, 4), conv_kernels=(8, 5), conv_strides=(4, 4), conv_dilations=(1, 1),
    lstm_hidden=5, lstm_layers=2, fc_hidden=6, dropout_p=0.0)

TINY_CNN = ModelConfig(
    conv_channels=(3, 4), conv_kernels=(8, 5), conv_strides=(4, 4), conv_dilations=(1, 2),
    lstm_hidden=0, lstm_layers=0, fc_hidden=6, dropout_p=0.0)

# Small but structurally valid (5 conv / 2 LSTM / 2 FC) variant for
# fast training tests.
SMALL_LSTM = ModelConfig(
    conv_channels=(8, 12, 12, 16, 16), conv_kernels=(16, 5, 5, 3, 3),
    conv_strides=(4, 2, 2, 1, 1), conv_dilations=(1, 1, 1, 1, 1),
    lstm_hidden=16, lstm_layers=2, fc_hidden=16)


def set_cpus(monkeypatch, n, blas=1):
    """Make the process look as if it may run on n CPUs, with BLAS reporting
    `blas` threads: by default 1, so that helpers start whatever BLAS the
    test runs with."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(threads, "blas_threads", lambda count=None: blas)


def step_inputs(batch, seed=0, dtype=np.float32):
    """A training batch of one-second windows and their frame labels."""
    rng = np.random.default_rng(seed)
    x = (0.1 * rng.standard_normal((batch, 1, 16000))).astype(dtype)
    return x, rng.integers(0, N_CLASSES, (batch, 1000))


def held(model):
    """What a Segmenter's layers hold between steps: caches, and the step's helper."""
    return [(type(layer).__name__, k) for layer in model.conv.layers + model.head.layers
            for k, v in vars(layer).items() if k.startswith("_") and v is not None]


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: tells -0.0 from 0.0 and matches NaN payloads."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint8),
                                  np.ascontiguousarray(want).view(np.uint8))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread other than the main one running."""
    yield
    left = [t for t in threading.enumerate() if t is not threading.main_thread()]
    assert not left, f"threads left running: {left}"
