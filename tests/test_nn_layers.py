import itertools
import tracemalloc

import numpy as np
import pytest

from ddkseg import nn
from ddkseg.nn.layers import BN_EPS


def conv1d_oracle(x, weight, bias, stride, padding, dilation):
    """Direct nested-loop cross-correlation."""
    batch, in_ch, length = x.shape
    out_ch, _, kernel = weight.shape
    eff = dilation * (kernel - 1) + 1
    out_len = (length + 2 * padding - eff) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    out = np.zeros((batch, out_ch, out_len))
    for b in range(batch):
        for o in range(out_ch):
            for l in range(out_len):
                acc = bias[o]
                for c in range(in_ch):
                    for k in range(kernel):
                        acc += weight[o, c, k] * xp[b, c, l * stride + k * dilation]
                out[b, o, l] = acc
    return out


def test_conv_identity_kernel():
    conv = nn.Conv1d(1, 1, 1, dtype=np.float64)
    conv.params["weight"][:] = 1.0
    conv.params["bias"][:] = 0.0
    x = np.linspace(-1, 1, 10).reshape(1, 1, 10)
    np.testing.assert_array_equal(conv.forward(x), x)


def test_conv_output_length():
    conv = nn.Conv1d(1, 2, 4, stride=4, dtype=np.float64)
    out = conv.forward(np.zeros((1, 1, 16)))
    assert out.shape == (1, 2, 4)


def test_conv_matches_oracle_random(rng):
    conv = nn.Conv1d(2, 3, 3, stride=1, padding=1, rng=rng, dtype=np.float64)
    x = rng.standard_normal((1, 2, 8))
    out = conv.forward(x)
    ref = conv1d_oracle(x, conv.params["weight"], conv.params["bias"], 1, 1, 1)
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_conv_matches_oracle_small_shapes(rng):
    # Exhaustive sweep over small shapes (all dims <= 8).
    cases = 0
    for batch, c_in, c_out, length, kernel, stride, padding, dilation in itertools.product(
            (1, 2), (1, 2), (1, 3), range(1, 9), (1, 2, 3), (1, 2, 3), (0, 1), (1, 2)):
        eff = dilation * (kernel - 1) + 1
        if length + 2 * padding < eff:
            continue
        conv = nn.Conv1d(c_in, c_out, kernel, stride=stride, padding=padding,
                         dilation=dilation, rng=rng, dtype=np.float64)
        x = rng.standard_normal((batch, c_in, length))
        ref = conv1d_oracle(x, conv.params["weight"], conv.params["bias"],
                            stride, padding, dilation)
        np.testing.assert_allclose(conv.forward(x), ref, atol=1e-12)
        cases += 1
    assert cases > 300


@pytest.mark.parametrize("dilation", [1, 2, 4, 8, 16, 32])
@pytest.mark.parametrize("kernel, pad", [(3, None), (3, (0, 0)), (3, (5, 0)), (5, (0, 7)), (1, (2, 3))])
@pytest.mark.parametrize("batch", [1, 4])
def test_eval_stride1_conv_matches_training_im2col(rng, dilation, kernel, pad, batch):
    # float32, as inference runs: the per-tap sums round differently from
    # the one GEMM over all taps, by far less than 1e-5 of the output scale.
    conv = nn.Conv1d(16, 24, kernel, padding=dilation, dilation=dilation, rng=rng)
    conv.params["bias"][:] = rng.standard_normal(24)
    x = rng.standard_normal((batch, 16, 150)).astype(np.float32)
    before = x.copy()
    want = conv.forward(x, train=True, pad=pad)
    got = conv.forward(x, pad=pad)
    assert got.shape == want.shape and got.dtype == np.float32
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
    np.testing.assert_array_equal(x, before)


def test_eval_stride1_conv_builds_no_im2col_buffer(rng):
    conv = nn.Conv1d(128, 32, 5, padding=2, rng=rng)
    x = rng.standard_normal((1, 128, 2000)).astype(np.float32)
    cols_bytes = 128 * 5 * 2000 * 4  # the im2col buffer of this call
    tracemalloc.start()
    try:
        conv.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cols_bytes / 2


def test_eval_stride1_conv_copies_no_weight(rng):
    # Each tap's GEMM reads its view of the weight in place: beyond the
    # output and the one per-tap term buffer, the call keeps less than
    # half a weight's bytes (a tap-major copy would be a whole weight).
    conv = nn.Conv1d(256, 256, 3, rng=rng)
    x = rng.standard_normal((1, 256, 250)).astype(np.float32)
    tracemalloc.start()
    try:
        out = conv.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 2 * out.nbytes < conv.params["weight"].nbytes / 2


def test_conv_shape_error():
    conv = nn.Conv1d(2, 3, 3, dtype=np.float64)
    with pytest.raises(ValueError, match="conv1d expects 2 input channels, got 5"):
        conv.forward(np.zeros((1, 5, 8)))


def test_batchnorm_train_normalizes(rng):
    bn = nn.BatchNorm1d(4, dtype=np.float64)
    x = rng.standard_normal((8, 4, 50)) * 3.0 + 1.5
    out = bn.forward(x, train=True)
    np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)


def test_batchnorm_eval_identity_with_unit_stats(rng):
    bn = nn.BatchNorm1d(3, dtype=np.float64)
    x = rng.standard_normal((2, 3, 20))
    out = bn.forward(x.copy(), train=False)  # eval may overwrite its input
    np.testing.assert_allclose(out, x, atol=1e-4)


def test_batchnorm_constant_channel_zeros():
    bn = nn.BatchNorm1d(1, dtype=np.float32)
    x = np.full((4, 1, 25), 0.7, dtype=np.float32)
    out = bn.forward(x, train=True)
    assert np.abs(out).max() < 1e-3


def test_batchnorm_running_moments():
    bn = nn.BatchNorm1d(1, dtype=np.float64)
    x = np.random.default_rng(0).standard_normal((4, 1, 100)) + 2.0
    bn.forward(x.copy(), train=True)  # a train forward may write into its input
    n = x.size
    expected_mean = 0.9 * 0.0 + 0.1 * x.mean()
    expected_var = 0.9 * 1.0 + 0.1 * x.var() * n / (n - 1)
    np.testing.assert_allclose(bn.running_mean, expected_mean, rtol=1e-12)
    np.testing.assert_allclose(bn.running_var, expected_var, rtol=1e-12)


def test_leaky_relu_values():
    act = nn.LeakyReLU()
    out = act.forward(np.array([-2.0, 0.0, 3.0]))
    np.testing.assert_allclose(out, [-0.02, 0.0, 3.0])


def test_dropout_eval_identity(rng):
    drop = nn.Dropout(0.5)
    x = rng.standard_normal((3, 4))
    np.testing.assert_array_equal(drop.forward(x, train=False), x)


def test_dropout_train_statistics():
    drop = nn.Dropout(0.5)
    x = np.ones((100_000,), dtype=np.float32)
    out = drop.forward(x, train=True, rng=np.random.default_rng(3))
    survivors = np.count_nonzero(out) / x.size
    assert abs(survivors - 0.5) < 0.01
    assert abs(out.mean() - 1.0) < 0.02


def test_dropout_deterministic_given_seed(rng):
    x = rng.standard_normal((50, 50)).astype(np.float32)
    a = nn.Dropout(0.3).forward(x, train=True, rng=np.random.default_rng(9))
    b = nn.Dropout(0.3).forward(x, train=True, rng=np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_dropout_rejects_bad_p():
    with pytest.raises(ValueError):
        nn.Dropout(1.0)


def test_linear_shapes(rng):
    lin = nn.Linear(4, 2, rng=rng, dtype=np.float64)
    out = lin.forward(rng.standard_normal((3, 7, 4)))
    assert out.shape == (3, 7, 2)


def test_softmax_xent_uniform_logits():
    loss, grad = nn.softmax_cross_entropy(np.zeros((5, 3)), np.array([0, 1, 2, 0, 1]))
    np.testing.assert_allclose(loss, np.log(3.0), rtol=1e-12)
    assert grad.shape == (5, 3)


def test_softmax_xent_saturated_logits_stable():
    loss, grad = nn.softmax_cross_entropy(np.array([[1000.0, 0.0, 0.0]]), np.array([0]))
    assert np.isfinite(loss) and loss < 1e-6
    assert np.all(np.isfinite(grad))


def test_softmax_xent_extended_precision_oracle(rng):
    logits = rng.standard_normal((40, 3)) * 5.0
    targets = rng.integers(0, 3, size=40)
    loss, grad = nn.softmax_cross_entropy(logits, targets)

    ld = np.longdouble
    z = logits.astype(ld)
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    ref_loss = float(-np.log(probs[np.arange(40), targets]).mean())
    assert abs(loss - ref_loss) < 1e-10

    onehot = np.zeros((40, 3), dtype=ld)
    onehot[np.arange(40), targets] = 1.0
    ref_grad = (probs - onehot) / 40.0
    np.testing.assert_allclose(grad, ref_grad.astype(np.float64), atol=1e-12)


def test_softmax_xent_class_weights(rng):
    logits = rng.standard_normal((6, 3))
    targets = np.array([0, 0, 1, 2, 2, 2])
    w = np.array([1.0, 5.0, 2.0])
    loss, grad = nn.softmax_cross_entropy(logits, targets, w)
    probs = np.exp(logits - logits.max(1, keepdims=True))
    probs /= probs.sum(1, keepdims=True)
    per = -np.log(probs[np.arange(6), targets]) * w[targets]
    np.testing.assert_allclose(loss, per.sum() / w[targets].sum(), rtol=1e-10)
    # gradient sums to zero per example only in the unweighted case; check
    # the weighted formula directly
    onehot = np.eye(3)[targets]
    ref = (probs - onehot) * (w[targets] / w[targets].sum())[:, None]
    np.testing.assert_allclose(grad, ref, rtol=1e-6, atol=1e-12)


def test_softmax_xent_rejects_bad_labels():
    with pytest.raises(ValueError, match=r"targets must lie in \[0, 3\)"):
        nn.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_softmax_probs_rows_sum_to_one(rng):
    probs = nn.softmax_probs(rng.standard_normal((30, 3)) * 8.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert probs.min() >= 0.0


def test_loss_nonnegative(rng):
    for _ in range(10):
        logits = rng.standard_normal((12, 3)) * 3.0
        targets = rng.integers(0, 3, size=12)
        loss, _ = nn.softmax_cross_entropy(logits, targets)
        assert loss >= 0.0


def _batchnorm_with_stats(rng):
    bn = nn.BatchNorm1d(3, dtype=np.float64)
    bn.params["gamma"][:] = rng.uniform(0.5, 2.0, 3)
    bn.params["beta"][:] = rng.standard_normal(3)
    bn.running_mean[:] = rng.standard_normal(3)
    bn.running_var[:] = rng.uniform(0.1, 3.0, 3)
    return bn


def _held(layer):
    return {k for k, v in vars(layer).items() if k.startswith("_") and v is not None}


def _running_moments_norm(bn, x):
    inv_std = 1.0 / np.sqrt(bn.running_var + BN_EPS)
    xhat = (x - bn.running_mean[:, None]) * inv_std[:, None]
    return xhat * bn.params["gamma"][:, None] + bn.params["beta"][:, None]


@pytest.mark.parametrize("make, shape, reference", [
    (lambda rng: nn.Conv1d(2, 3, 5, stride=2, padding=2, rng=rng, dtype=np.float64), (2, 2, 11), None),
    (_batchnorm_with_stats, (2, 3, 9), _running_moments_norm),
    (lambda rng: nn.LeakyReLU(), (2, 3, 9), None),
    (lambda rng: nn.Dropout(0.3), (2, 3, 9), lambda layer, x: x),
    (lambda rng: nn.Linear(4, 3, rng=rng, dtype=np.float64), (2, 5, 4), None),
], ids=["conv", "batchnorm", "leaky_relu", "dropout", "linear"])
def test_cache_free_eval_matches_cached_eval(rng, make, shape, reference):
    """A training forward keeps a cache; the eval forward after it drops
    that cache, keeps nothing, and matches the reference: the training
    output where the layer has no mode (reference None), the running-moment
    formula for batchnorm, identity for dropout."""
    layer = make(rng)
    x = rng.standard_normal(shape)
    cached = layer.forward(x.copy(), train=True, rng=np.random.default_rng(0))
    assert _held(layer), f"{type(layer).__name__} kept nothing for backward in train mode"
    expected = cached if reference is None else reference(layer, x)
    fresh = layer.forward(x.copy())  # may overwrite its input
    np.testing.assert_allclose(fresh, expected, rtol=1e-13, atol=1e-14)
    assert not _held(layer), f"{type(layer).__name__} kept {sorted(_held(layer))} in eval mode"


_EVERY_LAYER = pytest.mark.parametrize("make, shape", [
    (lambda rng: nn.Conv1d(2, 3, 5, stride=2, padding=2, rng=rng, dtype=np.float64), (2, 2, 11)),
    (_batchnorm_with_stats, (2, 3, 9)),
    (lambda rng: nn.LeakyReLU(), (2, 3, 9)),
    (lambda rng: nn.Dropout(0.3), (2, 3, 9)),
    (lambda rng: nn.Dropout(0.0), (2, 3, 9)),
    (lambda rng: nn.Linear(4, 3, rng=rng, dtype=np.float64), (2, 5, 4)),
    (lambda rng: nn.BiLSTM(4, 3, rng=rng, dtype=np.float64), (2, 5, 4)),
], ids=["conv", "batchnorm", "leaky_relu", "dropout", "dropout_p0", "linear", "bilstm"])
_NO_CACHE = r"backward needs a forward\(\.\.\., train=True\) first"


@_EVERY_LAYER
def test_backward_after_eval_forward_raises(rng, make, shape):
    """The eval forward drops the training forward's cache, so backward has
    nothing to differentiate: it raises instead of returning a gradient."""
    layer = make(rng)
    x = rng.standard_normal(shape)
    out = layer.forward(x.copy(), train=True, rng=np.random.default_rng(0))
    layer.backward(np.ones_like(out))
    layer.forward(x.copy())
    with pytest.raises(ValueError, match=_NO_CACHE):
        layer.backward(np.ones_like(out))


@_EVERY_LAYER
def test_second_backward_raises(rng, make, shape):
    """backward takes the cache, so a second one after one train forward
    raises too: dropout's included, at p == 0 as well."""
    layer = make(rng)
    out = layer.forward(rng.standard_normal(shape), train=True, rng=np.random.default_rng(0))
    layer.backward(np.ones_like(out))
    with pytest.raises(ValueError, match=_NO_CACHE):
        layer.backward(np.ones_like(out))
