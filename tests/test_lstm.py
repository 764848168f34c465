import tracemalloc

import numpy as np
import pytest

from ddkseg import nn
from ddkseg.nn.lstm import PROJ_BLOCK


def lstm_oracle_direction(x, w_ih, w_hh, bias, hid):
    """Step-by-step recurrence with explicit per-gate matrices.

    Gate rows in the fused weights are laid out [input, forget, output,
    cell]; this oracle slices them apart and applies the textbook update.
    """
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    w_i, w_f, w_o, w_g = (w_ih[k * hid:(k + 1) * hid] for k in range(4))
    u_i, u_f, u_o, u_g = (w_hh[k * hid:(k + 1) * hid] for k in range(4))
    b_i, b_f, b_o, b_g = (bias[k * hid:(k + 1) * hid] for k in range(4))

    batch, t_len, _ = x.shape
    h = np.zeros((batch, hid))
    c = np.zeros((batch, hid))
    out = np.zeros((batch, t_len, hid))
    for t in range(t_len):
        xt = x[:, t]
        gate_i = sig(xt @ w_i.T + h @ u_i.T + b_i)
        gate_f = sig(xt @ w_f.T + h @ u_f.T + b_f)
        gate_o = sig(xt @ w_o.T + h @ u_o.T + b_o)
        gate_g = np.tanh(xt @ w_g.T + h @ u_g.T + b_g)
        c = gate_f * c + gate_i * gate_g
        h = gate_o * np.tanh(c)
        out[:, t] = h
    return out


def test_zero_parameters_give_zero_output(rng):
    lstm = nn.BiLSTM(3, 4, dtype=np.float64)
    for key in lstm.params:
        lstm.params[key][:] = 0.0
    out = lstm.forward(rng.standard_normal((2, 6, 3)))
    assert out.shape == (2, 6, 8)
    np.testing.assert_array_equal(out, 0.0)


def test_empty_sequence():
    lstm = nn.BiLSTM(3, 4, dtype=np.float64)
    out = lstm.forward(np.zeros((2, 0, 3)))
    assert out.shape == (2, 0, 8)


def test_matches_scalar_oracle(rng):
    hid = 3
    lstm = nn.BiLSTM(2, hid, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 5, 2))
    out = lstm.forward(x)

    fw = lstm_oracle_direction(x, lstm.params["fw_w_ih"], lstm.params["fw_w_hh"],
                               lstm.params["fw_b"], hid)
    bw = lstm_oracle_direction(x[:, ::-1], lstm.params["bw_w_ih"], lstm.params["bw_w_hh"],
                               lstm.params["bw_b"], hid)[:, ::-1]
    np.testing.assert_allclose(out[:, :, :hid], fw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out[:, :, hid:], bw, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(lstm.forward(x, train=True), out)


def test_direction_swap_symmetry(rng):
    lstm = nn.BiLSTM(2, 3, rng=rng, dtype=np.float64)
    x = rng.standard_normal((1, 7, 2))
    out = lstm.forward(x)

    swapped = nn.BiLSTM(2, 3, dtype=np.float64)
    for key in ("w_ih", "w_hh", "b"):
        swapped.params[f"fw_{key}"] = lstm.params[f"bw_{key}"].copy()
        swapped.params[f"bw_{key}"] = lstm.params[f"fw_{key}"].copy()
    out_rev = swapped.forward(x[:, ::-1])

    # Reversed input + swapped directions = reversed output with halves swapped.
    np.testing.assert_allclose(out_rev[:, ::-1, 3:], out[:, :, :3], atol=1e-12)
    np.testing.assert_allclose(out_rev[:, ::-1, :3], out[:, :, 3:], atol=1e-12)


def test_forward_deterministic(rng):
    lstm = nn.BiLSTM(4, 6, rng=rng, dtype=np.float32)
    x = rng.standard_normal((3, 20, 4)).astype(np.float32)
    np.testing.assert_array_equal(lstm.forward(x), lstm.forward(x))


@pytest.mark.parametrize("batch", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("t_len", [0, 1, 7])
def test_cache_free_path_matches_cached_path(rng, batch, t_len):
    # Training keeps the states for backward, eval keeps nothing; same output.
    lstm = nn.BiLSTM(3, 4, rng=rng, dtype=np.float64)
    x = rng.standard_normal((batch, t_len, 3))
    cached = lstm.forward(x, train=True)
    assert lstm._cache is not None
    fused = lstm.forward(x)
    assert fused.shape == cached.shape == (batch, t_len, 8)
    np.testing.assert_allclose(fused, cached, rtol=0, atol=1e-12)
    assert lstm._cache is None


def test_cache_free_path_across_projection_blocks(rng):
    # Crosses two block boundaries, where the state carries over.
    lstm = nn.BiLSTM(3, 4, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 2 * PROJ_BLOCK + 3, 3))
    np.testing.assert_allclose(lstm.forward(x), lstm.forward(x, train=True), rtol=0, atol=1e-12)


def test_train_cache_is_input_gates_and_cells(rng):
    # Backward rebuilds each hidden state as forward made it, from the
    # output gate and the cell; nothing else is kept.
    batch, t_len, hid = 3, 2 * PROJ_BLOCK + 3, 4
    lstm = nn.BiLSTM(5, hid, rng=rng, dtype=np.float32)
    x = rng.standard_normal((batch, t_len, 5)).astype(np.float32)
    out = lstm.forward(x, train=True)
    cached_x, gates, cells = lstm._cache
    assert cached_x is x
    assert gates.shape == (t_len, 4, 2, batch, hid)
    assert cells.shape == (t_len + 1, 2, batch, hid)
    np.testing.assert_array_equal(cells[0], 0.0)
    # Step by step, as backward computes it: (time, direction, batch, H).
    rebuilt = np.stack([gates[t, 2] * np.tanh(cells[t + 1]) for t in range(t_len)])
    np.testing.assert_array_equal(rebuilt[:, 0].transpose(1, 0, 2), out[:, :, :hid])
    np.testing.assert_array_equal(rebuilt[::-1, 1].transpose(1, 0, 2), out[:, :, hid:])


def test_train_forward_transient_does_not_grow_with_length():
    # Beyond what it returns and caches, a train forward allocates
    # block-sized buffers only: both directions project PROJ_BLOCK steps
    # at a time, and it keeps no hidden state past its block.
    batch, inp, hid = 4, 16, 32
    block_bytes = batch * PROJ_BLOCK * 4 * hid * 4
    for t_len in (300, 1200):
        lstm = nn.BiLSTM(inp, hid, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((batch, t_len, inp)).astype(np.float32)
        tracemalloc.start()
        try:
            out = lstm.forward(x, train=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = out.nbytes + sum(a.nbytes for a in lstm._cache[1:])
        assert peak - kept < 3 * block_bytes, t_len
