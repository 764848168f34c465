"""Training layers in their plainer, larger form: Conv1d keeps its im2col
columns, Dropout a float mask, BatchNorm1d takes x.var and allocates every
intermediate, LeakyReLU selects with np.where, and the BiLSTM keeps
tanh(cell) for every step plus a separate (2, time, batch, 4H) array of
gate gradients. Each function runs a train forward and its backward with
a layer's parameters, so the slimmer caches and in-place kernels of
ddkseg.nn can be checked against them bit for bit. Kept only as oracles."""

from __future__ import annotations

import numpy as np

from ddkseg.nn.layers import BN_EPS, LEAKY_SLOPE
from ddkseg.nn.lstm import PROJ_BLOCK


def conv1d_reference(conv, x, dout, pad=None):
    """(out, dx, dweight, dbias) of `conv` on x, keeping the im2col columns."""
    batch, _, length = x.shape
    left, right = (conv.padding, conv.padding) if pad is None else pad
    xp = np.zeros((batch, conv.in_channels, left + length + right), dtype=x.dtype)
    xp[:, :, left:left + length] = x
    out_len = dout.shape[2]
    span = (out_len - 1) * conv.stride + 1
    cols = np.empty((batch, conv.in_channels, conv.kernel, out_len), dtype=x.dtype)
    for tap in range(conv.kernel):
        lo = tap * conv.dilation
        cols[:, :, tap, :] = xp[:, :, lo:lo + span:conv.stride]
    cols2 = cols.reshape(batch, conv.in_channels * conv.kernel, out_len)
    w2 = conv.params["weight"].reshape(conv.out_channels, -1)
    out = np.matmul(w2, cols2)
    out += conv.params["bias"][None, :, None]

    dbias = dout.sum(axis=(0, 2))
    dweight = np.matmul(dout, cols2.transpose(0, 2, 1)).sum(axis=0).reshape(conv.params["weight"].shape)
    dcols = np.matmul(w2.T, dout).reshape(batch, conv.in_channels, conv.kernel, out_len)
    dxp = np.zeros(xp.shape, dtype=dout.dtype)
    for tap in range(conv.kernel):
        lo = tap * conv.dilation
        dxp[:, :, lo:lo + span:conv.stride] += dcols[:, :, tap, :]
    return out, dxp[:, :, left:left + length], dweight, dbias


def dropout_reference(p, x, dout, rng):
    """(out, dx) of inverted dropout with the float mask keep / (1 - p)."""
    keep = rng.random(x.shape, dtype=np.float32) >= p
    mask = keep.astype(x.dtype) / (1.0 - p)
    return x * mask, dout * mask


def batchnorm_reference(bn, x, dout):
    """(out, dx, dgamma, dbeta) of train-mode `bn` on x, from x.mean, x.var
    and the textbook backward expression; the running moments are not
    touched."""
    mean = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
    gamma = bn.params["gamma"]
    out = gamma[None, :, None] * xhat + bn.params["beta"][None, :, None]
    dgamma = (dout * xhat).sum(axis=(0, 2))
    dbeta = dout.sum(axis=(0, 2))
    n = dout.shape[0] * dout.shape[2]
    dxhat = dout * gamma[None, :, None]
    sum_dxhat = dxhat.sum(axis=(0, 2))[None, :, None]
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2))[None, :, None]
    dx = (inv_std[None, :, None] / n) * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    return out, dx, dgamma, dbeta


def leaky_relu_reference(x, dout):
    """(out, dx) of a train-mode leaky ReLU, two np.where selects."""
    neg = x < 0
    return (np.where(neg, x * x.dtype.type(LEAKY_SLOPE), x),
            np.where(neg, dout * dout.dtype.type(LEAKY_SLOPE), dout))


def bilstm_reference(lstm, x, dout):
    """(out, dx, grads) of `lstm` on x, keeping every step's tanh(cell)."""
    batch, t_len, _ = x.shape
    hid = lstm.hidden_size
    p = lstm.params
    half = np.ones((4 * hid, 1), dtype=x.dtype)
    half[:3 * hid] = 0.5
    w_ih = (p["fw_w_ih"] * half, p["bw_w_ih"] * half)
    w_hh_t = np.ascontiguousarray((np.stack([p["fw_w_hh"], p["bw_w_hh"]]) * half).transpose(0, 2, 1))
    bias = (np.stack([p["fw_b"], p["bw_b"]]) * half[:, 0]).reshape(2, 4, 1, hid).transpose(1, 0, 2, 3)

    # Projected PROJ_BLOCK steps at a time, as the layer does: a one-step
    # GEMM rounds differently from a longer one.
    gates = np.empty((t_len, 4, 2, batch, hid), dtype=x.dtype)
    for d, xs in enumerate((x, x[:, ::-1])):
        for s0 in range(0, t_len, PROJ_BLOCK):
            block = np.matmul(xs[:, s0:s0 + PROJ_BLOCK], w_ih[d].T)
            gates[s0:s0 + PROJ_BLOCK, :, d] = block.reshape(batch, -1, 4, hid).transpose(1, 2, 0, 3)
    gates += bias
    hidden = np.zeros((t_len + 1, 2, batch, hid), dtype=x.dtype)
    cells = np.zeros((t_len + 1, 2, batch, hid), dtype=x.dtype)
    tanh_c = np.empty((t_len, 2, batch, hid), dtype=x.dtype)
    cell = np.zeros((2, batch, hid), dtype=x.dtype)
    zb = np.empty((2, batch, 4 * hid), dtype=x.dtype)
    zb_gates = zb.reshape(2, batch, 4, hid).transpose(2, 0, 1, 3)
    z = np.empty((4, 2, batch, hid), dtype=x.dtype)
    gi, gf, go, gg = z
    scratch = np.empty((2, batch, hid), dtype=x.dtype)
    for t in range(t_len):
        np.matmul(hidden[t], w_hh_t, out=zb)
        np.add(zb_gates, gates[t], out=z)
        np.tanh(z, out=z)
        z[:3] *= 0.5
        z[:3] += 0.5
        cell *= gf
        np.multiply(gi, gg, out=scratch)
        cell += scratch
        np.tanh(cell, out=scratch)
        np.multiply(go, scratch, out=hidden[t + 1])
        gates[t] = z
        cells[t + 1] = cell
        tanh_c[t] = scratch
    out = np.concatenate([hidden[1:, 0].transpose(1, 0, 2), hidden[:0:-1, 1].transpose(1, 0, 2)], axis=2)

    w_hh = np.stack([p["fw_w_hh"], p["bw_w_hh"]])
    dh_out = np.stack([dout[:, :, :hid].transpose(1, 0, 2), dout[:, ::-1, hid:].transpose(1, 0, 2)], axis=1)
    dz_all = np.empty((2, t_len, batch, 4 * hid), dtype=dout.dtype)
    dh = np.zeros((2, batch, hid), dtype=dout.dtype)
    dc = np.zeros((2, batch, hid), dtype=dout.dtype)
    for t in range(t_len - 1, -1, -1):
        gi, gf, go, gg = gates[t]
        tc = tanh_c[t]
        dh += dh_out[t]
        dc += dh * go * (1.0 - tc * tc)
        dz = dz_all[:, t]
        di, df, do, dg = dz.reshape(2, batch, 4, hid).transpose(2, 0, 1, 3)
        np.multiply(dc * gg, gi * (1.0 - gi), out=di)
        np.multiply(dc * cells[t], gf * (1.0 - gf), out=df)
        np.multiply(dh * tc, go * (1.0 - go), out=do)
        np.multiply(dc * gi, 1.0 - gg * gg, out=dg)
        np.matmul(dz, w_hh, out=dh)
        dc *= gf

    grads = {}
    dx = np.zeros((t_len, batch, lstm.input_size), dtype=dout.dtype)
    x_tm = x.transpose(1, 0, 2)
    for d, direction in enumerate(("fw", "bw")):
        dz2 = dz_all[d].reshape(t_len * batch, 4 * hid)
        xs = x_tm if d == 0 else x_tm[::-1]
        grads[f"{direction}_w_ih"] = dz2.T @ xs.reshape(t_len * batch, lstm.input_size)
        grads[f"{direction}_w_hh"] = dz2.T @ hidden[:-1, d].reshape(t_len * batch, hid)
        grads[f"{direction}_b"] = dz2.sum(axis=0)
        dxs = (dz2 @ p[f"{direction}_w_ih"]).reshape(dx.shape)
        dx += dxs if d == 0 else dxs[::-1]
    return out, np.ascontiguousarray(dx.transpose(1, 0, 2)), grads
