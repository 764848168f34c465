"""Bidirectional LSTM layer with hand-written backpropagation through time.

Gates are fused into one (4H) projection per direction, laid out as
[input, forget, output, cell] so the three sigmoids apply to one
contiguous block and the tanh to another. Initial hidden and cell states
are zero. The input projection for all time steps runs as a single GEMM;
only the recurrent half of each step is sequential, so the inner loop
works in-place on preallocated buffers.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer
from .ops import uniform_fan


def _sigmoid_inplace(a: np.ndarray) -> None:
    np.clip(a, -60.0, 60.0, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.reciprocal(a, out=a)


class BiLSTM(Layer):
    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = rng or np.random.default_rng(0)
        self.params = {}
        for direction in ("fw", "bw"):
            self.params[f"{direction}_w_ih"] = uniform_fan(rng, (4 * hidden_size, input_size), hidden_size, dtype)
            self.params[f"{direction}_w_hh"] = uniform_fan(rng, (4 * hidden_size, hidden_size), hidden_size, dtype)
            self.params[f"{direction}_b"] = uniform_fan(rng, (4 * hidden_size,), hidden_size, dtype)
        self._cache = None

    def _run_direction(self, x_tm: np.ndarray, direction: str):
        """x_tm is time-major (T, B, I); returns (h (T, B, H), cache)."""
        t_len, batch, _ = x_tm.shape
        hid = self.hidden_size
        w_hh_t = np.ascontiguousarray(self.params[f"{direction}_w_hh"].T)

        proj = x_tm.reshape(t_len * batch, -1) @ self.params[f"{direction}_w_ih"].T
        proj = proj.reshape(t_len, batch, 4 * hid)
        proj += self.params[f"{direction}_b"]

        gates = np.empty((t_len, batch, 4 * hid), dtype=x_tm.dtype)
        cells = np.zeros((t_len + 1, batch, hid), dtype=x_tm.dtype)
        hidden = np.zeros((t_len + 1, batch, hid), dtype=x_tm.dtype)
        tanh_c = np.empty((t_len, batch, hid), dtype=x_tm.dtype)
        scratch = np.empty((batch, hid), dtype=x_tm.dtype)
        for t in range(t_len):
            z = gates[t]
            np.matmul(hidden[t], w_hh_t, out=z)
            z += proj[t]
            _sigmoid_inplace(z[:, :3 * hid])
            np.tanh(z[:, 3 * hid:], out=z[:, 3 * hid:])
            gi = z[:, :hid]
            gf = z[:, hid:2 * hid]
            go = z[:, 2 * hid:3 * hid]
            gg = z[:, 3 * hid:]
            c = cells[t + 1]
            np.multiply(gf, cells[t], out=c)
            np.multiply(gi, gg, out=scratch)
            c += scratch
            tc = tanh_c[t]
            np.tanh(c, out=tc)
            np.multiply(go, tc, out=hidden[t + 1])
        return hidden[1:], (gates, cells, hidden, tanh_c)

    def _backprop_direction(self, direction: str, x_tm, dout_tm, cache):
        t_len, batch, _ = x_tm.shape
        hid = self.hidden_size
        gates, cells, hidden, tanh_c = cache
        w_ih = self.params[f"{direction}_w_ih"]
        w_hh = self.params[f"{direction}_w_hh"]

        dz_all = np.empty((t_len, batch, 4 * hid), dtype=dout_tm.dtype)
        dh = np.zeros((batch, hid), dtype=dout_tm.dtype)
        dc = np.zeros((batch, hid), dtype=dout_tm.dtype)
        for t in range(t_len - 1, -1, -1):
            z = gates[t]
            gi = z[:, :hid]
            gf = z[:, hid:2 * hid]
            go = z[:, 2 * hid:3 * hid]
            gg = z[:, 3 * hid:]
            tc = tanh_c[t]

            dh += dout_tm[t]
            # dc += dh * go * (1 - tc^2)
            dc += dh * go * (1.0 - tc * tc)
            dz = dz_all[t]
            np.multiply(dc * gg, gi * (1.0 - gi), out=dz[:, :hid])
            np.multiply(dc * cells[t], gf * (1.0 - gf), out=dz[:, hid:2 * hid])
            np.multiply(dh * tc, go * (1.0 - go), out=dz[:, 2 * hid:3 * hid])
            np.multiply(dc * gi, 1.0 - gg * gg, out=dz[:, 3 * hid:])
            np.matmul(dz, w_hh, out=dh)
            dc *= gf

        dz2 = dz_all.reshape(t_len * batch, 4 * hid)
        self.grads[f"{direction}_w_ih"] = dz2.T @ x_tm.reshape(t_len * batch, -1)
        self.grads[f"{direction}_w_hh"] = dz2.T @ hidden[:-1].reshape(t_len * batch, hid)
        self.grads[f"{direction}_b"] = dz2.sum(axis=0)
        return (dz2 @ w_ih).reshape(t_len, batch, -1)

    def forward(self, x, train=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(f"bilstm expects (batch, time, {self.input_size}), got {x.shape}")
        batch, t_len, _ = x.shape
        if t_len == 0:
            self._cache = None
            return np.zeros((batch, 0, 2 * self.hidden_size), dtype=x.dtype)
        x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
        h_fw, cache_fw = self._run_direction(x_tm, "fw")
        x_rev = x_tm[::-1].copy()
        h_bw, cache_bw = self._run_direction(x_rev, "bw")
        self._cache = (x_tm, x_rev, cache_fw, cache_bw)
        out = np.concatenate([h_fw, h_bw[::-1]], axis=2)
        return np.ascontiguousarray(out.transpose(1, 0, 2))

    def backward(self, dout):
        if self._cache is None:
            return np.zeros((dout.shape[0], 0, self.input_size), dtype=dout.dtype)
        x_tm, x_rev, cache_fw, cache_bw = self._cache
        hid = self.hidden_size
        dout_tm = dout.transpose(1, 0, 2)
        dx = self._backprop_direction("fw", x_tm, np.ascontiguousarray(dout_tm[:, :, :hid]), cache_fw)
        dx_rev = self._backprop_direction(
            "bw", x_rev, np.ascontiguousarray(dout_tm[::-1, :, hid:]), cache_bw)
        dx += dx_rev[::-1]
        return np.ascontiguousarray(dx.transpose(1, 0, 2))
