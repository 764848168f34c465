"""Bidirectional LSTM layer with hand-written backpropagation through time.

Gates are fused into one (4H) projection per direction, laid out as
[input, forget, output, cell] so the three sigmoids apply to one
contiguous block and the tanh to another. Initial hidden and cell states
are zero. Only the recurrent half of each step is sequential, so the
inner loops work in-place on preallocated buffers.

forward(x) (cache=True, the training path) runs the two directions one
after the other, each with its input projection for all time steps as one
GEMM, and keeps every step's gates, cells, hidden states and tanh(cell)
for backward().

forward(x, cache=False) is the inference path and keeps nothing. Both
directions advance in one time loop, the backward one reading time
reversed, so each step costs one batched recurrent matmul and one numpy
call per gate operation for the pair (Appleyard et al. 2016,
arXiv:1604.01946). Each step's pre-activations are gathered gate-major,
(gate, direction, batch, H), so that every gate of both directions is one
contiguous block: numpy runs contiguous operands several times faster
than strided slices at these sizes. Sigmoids are taken as
0.5 * tanh(a / 2) + 0.5, with the halving folded into the weights, so one
tanh covers all four gates. The input projection is computed PROJ_BLOCK
steps at a time, and each block's hidden states are written straight into
the (batch, time, 2H) output.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer
from .ops import uniform_fan

# Time steps per input-projection block of the inference loop: bounds its
# buffer to (PROJ_BLOCK, 4, 2, batch, H) whatever the sequence length.
PROJ_BLOCK = 128


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

    def _forward_fused(self, x: np.ndarray) -> np.ndarray:
        """Both directions in one time loop, keeping nothing; x is (B, T, I)."""
        batch, t_len, _ = x.shape
        hid = self.hidden_size
        p = self.params
        # Halving the sigmoid gates' rows is exact in binary floating point.
        half = np.ones((4 * hid, 1), dtype=x.dtype)
        half[:3 * hid] = 0.5
        w_ih = (p["fw_w_ih"] * half, p["bw_w_ih"] * half)
        w_hh_t = np.ascontiguousarray((np.stack([p["fw_w_hh"], p["bw_w_hh"]]) * half).transpose(0, 2, 1))
        bias = (np.stack([p["fw_b"], p["bw_b"]]) * half[:, 0]).reshape(2, 4, 1, hid).transpose(1, 0, 2, 3)

        block = min(PROJ_BLOCK, t_len)
        proj = np.empty((block, 4, 2, batch, hid), dtype=x.dtype)
        # hidden[0] is the state carried into the block, hidden[j + 1] step j's output.
        hidden = np.zeros((block + 1, 2, batch, hid), dtype=x.dtype)
        cell = np.zeros((2, batch, hid), dtype=x.dtype)
        zb = np.empty((2, batch, 4 * hid), dtype=x.dtype)  # recurrent matmul output
        zb_gates = zb.reshape(2, batch, 4, hid).transpose(2, 0, 1, 3)
        z = np.empty((4, 2, batch, hid), dtype=x.dtype)
        gi, gf, go, gg = z
        sigmoid_gates = z[:3]
        scratch = np.empty((2, batch, hid), dtype=x.dtype)
        out = np.empty((batch, t_len, 2 * hid), dtype=x.dtype)
        for s0 in range(0, t_len, PROJ_BLOCK):
            k = min(PROJ_BLOCK, t_len - s0)
            fw_times = slice(s0, s0 + k)
            bw_times = slice(t_len - s0 - k, t_len - s0)  # read last to first below
            for d, xs in enumerate((x[:, fw_times], x[:, bw_times][:, ::-1])):
                r = np.matmul(xs, w_ih[d].T).reshape(batch, k, 4, hid)
                proj[:k, :, d] = r.transpose(1, 2, 0, 3)
            proj[:k] += bias
            for j in range(k):
                np.matmul(hidden[j], w_hh_t, out=zb)
                np.add(zb_gates, proj[j], out=z)
                np.tanh(z, out=z)
                sigmoid_gates *= 0.5
                sigmoid_gates += 0.5
                cell *= gf
                np.multiply(gi, gg, out=scratch)
                cell += scratch
                np.tanh(cell, out=scratch)
                np.multiply(go, scratch, out=hidden[j + 1])
            out[:, fw_times, :hid] = hidden[1:k + 1, 0].transpose(1, 0, 2)
            out[:, bw_times, hid:] = hidden[k:0:-1, 1].transpose(1, 0, 2)
            hidden[0] = hidden[k]
        return out

    def forward(self, x, train=False, rng=None, *, cache=True):
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(f"bilstm expects (batch, time, {self.input_size}), got {x.shape}")
        batch, t_len, _ = x.shape
        if t_len == 0 or not cache:
            self._cache = None
            return self._forward_fused(x)
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
