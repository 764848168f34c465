"""Bidirectional LSTM layer with hand-written backpropagation through time.

Gates are fused into one (4H) projection per direction, laid out as
[input, forget, output, cell]. Initial hidden and cell states are zero.

Both directions advance in one time loop, the backward one reading time
reversed, so each step costs one batched recurrent matmul and one numpy
call per gate operation for the pair (Appleyard et al. 2016,
arXiv:1604.01946); backward() walks the same steps in reverse the same
way. Each step's pre-activations are gathered gate-major, (gate,
direction, batch, H), so that every gate of both directions is one
contiguous block: numpy runs contiguous operands several times faster
than strided slices at these sizes. Sigmoids are taken as
0.5 * tanh(a / 2) + 0.5, with the halving folded into the weights, so one
tanh covers all four gates; backward() takes each gate's derivative from
its output (s * (1 - s) for a sigmoid), so it needs no halving.

The input projection is computed PROJ_BLOCK steps at a time, and the
hidden states of one block at a time are kept, each block's written
straight into the (batch, time, 2H) output. Block 0 is projected first,
both directions plus the bias; then, while the calling thread runs block
b's time loop, one job projects block b + 1 the same way, and the caller
waits for it before block b + 1's steps. The time loop is a per-step
Python loop of small calls, so a helper thread running the job's GEMMs
(which release the GIL) beside it hides most of the projection, where
running one block's two directions side by side did not (the caller then
only waited). Every GEMM keeps its operands and shapes, so the output is
bit-identical however the jobs run. The caller allocates all a job
writes: its one-direction GEMM output buffer, and the block's place in
training's gate cache or in eval's two-block ring (2 x PROJ_BLOCK steps).

A forward that has a second block, in training as in eval, opens a
threads._Helpers of its own for the call and joins it before it returns,
so the layer keeps no helper between calls. Where _Helpers starts no
helper, the jobs run inline. In eval the helper no longer pays: both
BiLSTMs of the benchmark's LSTM checkpoint on (4, 1000, I) inputs took
97.4 ms with it against 94.0 ms without (medians of 30 alternated calls,
2 CPUs, BLAS on one thread).

In training the blocks are projected straight into the gate cache, and
backward() gets the input x (by reference), every step's gate outputs
(written over the projection they were computed from) and every step's
cell. backward() walks the same PROJ_BLOCK blocks, last first. For each
block it first computes, in one vectorised call each, what the block's
steps read that does not depend on the recurrence: tanh(cell) (with the
same np.tanh forward used, rather than kept from it), the hidden states
go * tanh(cell) as forward made them (for the recurrent weights'
gradient), 1 - tanh(cell)^2, s * (1 - s) of the three sigmoid gates,
1 - g^2 of the cell gate, and the block's dout of both directions in
step order. What is left in the step loop is the recurrence itself,
about 13 small numpy calls a step where there were 23, and at these
sizes a step costs mostly its calls: the 1000 steps of batch 4 and H 128,
the block passes included, took 40 ms against 47 ms for the per-step
form (medians of 40 alternated calls in one process, BLAS on one
thread). Each element still sees the same operations in the same order,
so the gradients keep their bits. The block buffers take about 1.8 MB at
batch 4 and H 128. Each step writes its gate gradients over its spent
gate outputs rather than into a second (time, batch, 2, 4H) array.
Under Segmenter.backward, whose helper thread computes the weight
gradients, the recurrent weights' and biases' run beside the input
gradient, then the input weights' (see ddkseg.nn.layers).
"""

from __future__ import annotations

import functools

import numpy as np

from . import threads
from .layers import Layer
from .ops import uniform_fan

# Time steps per input-projection block: bounds the projection's buffers,
# and the hidden states kept, whatever the sequence length. With 128, eval's
# two-block ring raised the peak RSS of predict_file over the
# segment-lstm-16k files from 56.7 to 60.0 MB.
PROJ_BLOCK = 64


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

    def forward(self, x, train=False, rng=None):
        """x is (B, T, I); returns (B, T, 2H), forward direction first."""
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(f"bilstm expects (batch, time, {self.input_size}), got {x.shape}")
        self._cache = None
        # A helper of the call's own, where there is a next block to project.
        with threads._Helpers(2 if x.shape[1] > PROJ_BLOCK else 1, bound=1) as helpers:
            out, self._cache = self._run(x, train, helpers)
        return out

    def _run(self, x, train, helpers):
        """The forward pass: (output, backward cache or None). Each next
        block's projection is a job for helpers."""
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
        # hidden[0] is the state carried into the block, hidden[j + 1] step j's output.
        hidden = np.zeros((block + 1, 2, batch, hid), dtype=x.dtype)
        cell = np.zeros((2, batch, hid), dtype=x.dtype)
        # In training proj is the gate cache: proj[t] holds step t's
        # projection until the step overwrites it with its gate outputs. In
        # eval it is a ring of two blocks: the one the steps read, and the
        # next one, which a job projects meanwhile.
        proj = np.empty((t_len, 4, 2, batch, hid) if train else (2, block, 4, 2, batch, hid), dtype=x.dtype)
        if train:
            cells = np.zeros((t_len + 1, 2, batch, hid), dtype=x.dtype)  # cells[t + 1] after step t
        gemm_out = np.empty(batch * block * 4 * hid, dtype=x.dtype)  # one direction's block, (batch, k, 4H)

        def steps_of(s0):
            """Block s0's projections, (k, gate, direction, batch, H)."""
            k = min(block, t_len - s0)
            return proj[s0:s0 + k] if train else proj[s0 // block % 2, :k]

        def project(s0):
            """Block s0's projections of both directions, plus the bias."""
            steps = steps_of(s0)
            k = len(steps)
            out = gemm_out[:batch * k * 4 * hid].reshape(batch, k, 4 * hid)
            _project(x[:, s0:s0 + k], w_ih[0], out, steps[:, :, 0])
            _project(x[:, t_len - s0 - k:t_len - s0][:, ::-1], w_ih[1], out, steps[:, :, 1])
            steps += bias

        zb = np.empty((2, batch, 4 * hid), dtype=x.dtype)  # recurrent matmul output
        zb_gates = zb.reshape(2, batch, 4, hid).transpose(2, 0, 1, 3)
        z = np.empty((4, 2, batch, hid), dtype=x.dtype)
        gi, gf, go, gg = z
        sigmoid_gates = z[:3]
        scratch = np.empty((2, batch, hid), dtype=x.dtype)
        out = np.empty((batch, t_len, 2 * hid), dtype=x.dtype)
        if t_len:
            project(0)
        for s0 in range(0, t_len, max(block, 1)):
            steps = steps_of(s0)
            k = len(steps)
            if s0 + k < t_len:
                helpers.submit(functools.partial(project, s0 + k))
            for j in range(k):
                np.matmul(hidden[j], w_hh_t, out=zb)
                np.add(zb_gates, steps[j], out=z)
                np.tanh(z, out=z)
                sigmoid_gates *= 0.5
                sigmoid_gates += 0.5
                cell *= gf
                np.multiply(gi, gg, out=scratch)
                cell += scratch
                np.tanh(cell, out=scratch)
                np.multiply(go, scratch, out=hidden[j + 1])
                if train:
                    steps[j] = z
                    cells[s0 + j + 1] = cell
            out[:, s0:s0 + k, :hid] = hidden[1:k + 1, 0].transpose(1, 0, 2)
            out[:, t_len - s0 - k:t_len - s0, hid:] = hidden[k:0:-1, 1].transpose(1, 0, 2)
            if s0 + k < t_len:
                hidden[0] = hidden[k]
                helpers.wait()
        return out, ((x, proj, cells) if train else None)

    def backward(self, dout):
        x, gates, cells = self._take_cache()
        batch, t_len, _ = x.shape
        hid = self.hidden_size
        p = self.params
        w_hh = np.stack([p["fw_w_hh"], p["bw_w_hh"]])
        # dz_all[t] takes step t's gate gradients once the step is done with
        # gates[t], batch-major, so that each direction's (time * batch, 4H)
        # gradients are a view for the weight-gradient GEMMs.
        dz_all = gates.reshape(t_len, batch, 2, 4 * hid)
        dz_steps = gates.reshape(t_len, batch, 2, 4, hid)  # dz_all[t] per gate, for the copy
        dz_rec = dz_all.transpose(0, 2, 1, 3)  # dz_all[t] direction-major, for the recurrent GEMM
        dz_gates = np.empty((4, 2, batch, hid), dtype=dout.dtype)  # gate-major, as gates[t]
        dz_sig, dz_g = dz_gates[:3], dz_gates[3]
        dz_copy = dz_gates.transpose(2, 1, 0, 3)  # laid out as dz_steps[t]
        # dc * g, dc * c_prev and dh * tanh(c): what scales each sigmoid gate's s * (1 - s).
        upstream = np.empty((3, 2, batch, hid), dtype=dout.dtype)
        up_g, up_c, up_h = upstream
        scratch = np.empty((2, batch, hid), dtype=dout.dtype)
        # hs[d, t]: the hidden state direction d carried into step t (zero at
        # t = 0), rebuilt from step t - 1's gates and cell as forward made it;
        # hs[:, t_len], the last output, is written but never read.
        hs = np.zeros((2, t_len + 1, batch, hid), dtype=x.dtype)
        # What the steps of one block read that does not depend on the
        # recurrence, computed for the whole block before its steps.
        block = min(PROJ_BLOCK, t_len)
        tc_all = np.empty((block, 2, batch, hid), dtype=x.dtype)  # tanh(cell) after step t
        dtanh_c_all = np.empty_like(tc_all)  # 1 - tanh(cell)^2
        dsig_all = np.empty((block, 3, 2, batch, hid), dtype=x.dtype)  # s * (1 - s), three sigmoid gates
        dtanh_g_all = np.empty_like(tc_all)  # 1 - g^2, the cell gate
        dout_all = np.empty((block, 2, batch, hid), dtype=dout.dtype)  # dout, the backward direction reversed
        dh = np.zeros((2, batch, hid), dtype=dout.dtype)
        dc = np.zeros((2, batch, hid), dtype=dout.dtype)
        for s0 in reversed(range(0, t_len, max(block, 1))):
            k = min(block, t_len - s0)
            tc, dtanh_c, dsig, dtanh_g, dout_k = (a[:k] for a in (tc_all, dtanh_c_all, dsig_all, dtanh_g_all, dout_all))
            sigmoids, g = gates[s0:s0 + k, :3], gates[s0:s0 + k, 3]
            np.tanh(cells[s0 + 1:s0 + k + 1], out=tc)
            np.multiply(sigmoids[:, 2], tc, out=hs[:, s0 + 1:s0 + k + 1].transpose(1, 0, 2, 3))
            np.multiply(tc, tc, out=dtanh_c)
            np.subtract(1.0, dtanh_c, out=dtanh_c)
            np.subtract(1.0, sigmoids, out=dsig)
            np.multiply(sigmoids, dsig, out=dsig)
            np.multiply(g, g, out=dtanh_g)
            np.subtract(1.0, dtanh_g, out=dtanh_g)
            dout_k[:, 0] = dout[:, s0:s0 + k, :hid].transpose(1, 0, 2)
            dout_k[:, 1] = dout[:, t_len - s0 - k:t_len - s0, hid:][:, ::-1].transpose(1, 0, 2)
            for j in range(k - 1, -1, -1):
                t = s0 + j
                gi, gf, go, gg = gates[t]
                dh += dout_k[j]
                np.multiply(dh, go, out=scratch)
                scratch *= dtanh_c[j]
                dc += scratch
                np.multiply(dc, gg, out=up_g)
                np.multiply(dc, cells[t], out=up_c)
                np.multiply(dh, tc[j], out=up_h)
                np.multiply(upstream, dsig[j], out=dz_sig)
                np.multiply(dc, gi, out=scratch)
                np.multiply(scratch, dtanh_g[j], out=dz_g)
                dc *= gf
                dz_steps[t] = dz_copy
                np.matmul(dz_rec[t], w_hh, out=dh)
        del cells  # free before the GEMMs

        dz2 = [dz_all[:, :, d].reshape(t_len * batch, 4 * hid) for d in (0, 1)]
        grads = {k: np.empty(v.shape, dtype=gates.dtype) for k, v in p.items()}
        # Two jobs: the first runs beside the dx GEMMs below (one job after
        # them left the helper idle there, and the next layers' jobs waited
        # on the full queue), and the second's operand buffer xs is
        # allocated only once their temporaries are freed.

        def recurrent_grads():
            for d, direction in enumerate(("fw", "bw")):
                np.matmul(dz2[d].T, hs[d, :t_len].reshape(t_len * batch, hid), out=grads[f"{direction}_w_hh"])
                np.sum(dz2[d], axis=0, out=grads[f"{direction}_b"])

        self._later(recurrent_grads)
        dx = np.zeros((t_len, batch, self.input_size), dtype=dout.dtype)
        for d, direction in enumerate(("fw", "bw")):
            dxs = (dz2[d] @ p[f"{direction}_w_ih"]).reshape(dx.shape)
            dx += dxs if d == 0 else dxs[::-1]
            del dxs  # free before the next direction's

        # The input GEMMs' time-major operand, copied in here by the job: one
        # buffer for both directions, as the job runs them one by one.
        xs = np.empty((t_len, batch, self.input_size), dtype=x.dtype)

        def input_grads():
            x_tm = x.transpose(1, 0, 2)
            for d, direction in enumerate(("fw", "bw")):
                np.copyto(xs, x_tm if d == 0 else x_tm[::-1])
                np.matmul(dz2[d].T, xs.reshape(t_len * batch, self.input_size), out=grads[f"{direction}_w_ih"])

        self._later(input_grads)
        self.grads.update(grads)
        return dx.transpose(1, 0, 2)


def _project(xs, w_ih, out, dest):
    """dest[time, gate, batch, :] = (xs @ w_ih.T) of xs (batch, time, I),
    by way of the (batch, time, 4H) array out."""
    r = np.matmul(xs, w_ih.T, out=out)
    dest[...] = r.reshape(r.shape[0], r.shape[1], 4, -1).transpose(1, 2, 0, 3)
