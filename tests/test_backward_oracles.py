"""The training layers' slim caches and in-place kernels against the layers
in their larger form (tests/backward_reference.py): same forward output
and same gradients, bit for bit, in float32 and float64."""

import numpy as np
import pytest
from backward_reference import (batchnorm_reference, bilstm_reference, conv1d_reference, dropout_reference,
                                leaky_relu_reference)
from conftest import assert_same_bits

from ddkseg import nn
from ddkseg.nn.lstm import PROJ_BLOCK

DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel, stride, padding, dilation, pad", [
    (5, 1, 2, 1, None),
    (16, 4, 6, 1, None),
    (5, 2, 2, 1, None),
    (8, 4, 0, 1, None),
    (3, 1, 4, 4, None),
    (3, 2, 2, 3, None),
    (5, 1, 2, 2, (0, 8)),
    (4, 1, 3, 1, (3, 0)),
    (5, 2, 2, 1, (1, 4)),
], ids=["s1", "s4_first", "s2", "s4_nopad", "s1_d4", "s2_d3", "pad_right", "pad_left", "s2_pad"])
def test_conv_matches_column_caching_reference(rng, dtype, kernel, stride, padding, dilation, pad):
    conv = nn.Conv1d(3, 4, kernel, stride=stride, padding=padding, dilation=dilation, rng=rng, dtype=dtype)
    x = rng.standard_normal((2, 3, 57)).astype(dtype)
    out = conv.forward(x, train=True, pad=pad)
    dout = rng.standard_normal(out.shape).astype(dtype)
    want_out, want_dx, want_dw, want_db = conv1d_reference(conv, x, dout, pad=pad)
    dx = conv.backward(dout)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)
    assert_same_bits(conv.grads["weight"], want_dw)
    assert_same_bits(conv.grads["bias"], want_db)


@pytest.mark.parametrize("dtype", DTYPES)
# At p = 0.15, float32(1) / float32(0.85) differs from float32(1 / 0.85): the
# scale must be rounded once, in the layer's dtype, as the float mask was.
@pytest.mark.parametrize("p", [0.1, 0.15, 0.5])
def test_dropout_matches_float_mask_reference(dtype, p):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 6, 300)).astype(dtype)
    x[0, 0, :8] = [0.0, -0.0, np.inf, -np.inf, np.nan, -1e-40, 1e-40, -0.0]
    dout = rng.standard_normal(x.shape).astype(dtype)
    dout[1, 1, :3] = [-0.0, np.nan, -np.inf]
    layer = nn.Dropout(p)
    with np.errstate(invalid="ignore"):  # a dropped inf becomes NaN in both
        # Copies: the layer writes its output into x, and dx into dout.
        out = layer.forward(x.copy(), train=True, rng=np.random.default_rng(3))
        assert layer._cache.dtype == np.bool_
        dx = layer.backward(dout.copy())
        want_out, want_dx = dropout_reference(p, x, dout, np.random.default_rng(3))
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)


def _special_values(dtype):
    """Signed zeros, infinities, a NaN and subnormals of both signs."""
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny, -5 * tiny], dtype=dtype)


def _layer_case(dtype, batch, seed):
    rng = np.random.default_rng(seed)
    x = (3.0 * rng.standard_normal((batch, 5, 40)) + 0.5).astype(dtype)
    dout = rng.standard_normal(x.shape).astype(dtype)
    return rng, x, dout


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", [1, 4])
def test_leaky_relu_matches_where_reference(dtype, batch):
    _, x, dout = _layer_case(dtype, batch, batch)
    special = _special_values(dtype)
    x[0, 0, :len(special)] = special
    x[-1, 1, :len(special)] = special[::-1]
    dout[0, 0, :len(special)] = special[::-1]
    dout[-1, 2, :len(special)] = special
    layer = nn.LeakyReLU()
    with np.errstate(invalid="ignore", under="ignore"):
        out = layer.forward(x.copy(), train=True)
        dx = layer.backward(dout.copy())
        want_out, want_dx = leaky_relu_reference(x, dout)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", [1, 4])
def test_batchnorm_matches_var_reference(dtype, batch):
    rng, x, dout = _layer_case(dtype, batch, 10 + batch)
    special = _special_values(dtype)
    x[:, 0] = 0.7  # a constant channel: zero variance, xhat all zeros
    x[0, 1, :len(special)] = special  # a channel that inf and NaN make all NaN
    x[-1, 2, :2] = special[5:7]  # subnormals in an otherwise normal channel
    dout[0, 3, :len(special)] = special
    dout[-1, 4, :2] = [-0.0, special[7]]
    bn = nn.BatchNorm1d(5, dtype=dtype)
    bn.params["gamma"][:] = rng.uniform(0.5, 1.5, 5)
    bn.params["beta"][:] = rng.standard_normal(5)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        out = bn.forward(x.copy(), train=True)
        dx = bn.backward(dout.copy())
        want_out, want_dx, want_dgamma, want_dbeta = batchnorm_reference(bn, x, dout)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)
    assert_same_bits(bn.grads["gamma"], want_dgamma)
    assert_same_bits(bn.grads["beta"], want_dbeta)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", [1, 4, 32])
@pytest.mark.parametrize("t_len", [1, 7, PROJ_BLOCK, 2 * PROJ_BLOCK, 2 * PROJ_BLOCK + 3, 259, 300])
def test_bilstm_matches_tanh_caching_reference(dtype, batch, t_len):
    rng = np.random.default_rng(batch * 1000 + t_len)
    lstm = nn.BiLSTM(6, 8, rng=rng, dtype=dtype)
    x = rng.standard_normal((batch, t_len, 6)).astype(dtype)
    dout = rng.standard_normal((batch, t_len, 16)).astype(dtype)
    out = lstm.forward(x, train=True)
    dx = lstm.backward(dout)
    want_out, want_dx, want_grads = bilstm_reference(lstm, x, dout)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)
    assert lstm.grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        assert_same_bits(lstm.grads[name], want)
