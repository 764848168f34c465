"""Feed-forward layers: conv1d, batchnorm, leaky ReLU, dropout, linear.

Every layer keeps its trainable arrays in self.params (name -> ndarray) and
fills self.grads with matching shapes during backward(). A training conv,
and an eval conv with stride > 1 (the small bottom of each model's stack),
runs as a tap-sliced im2col followed by one batched GEMM, which is where
nearly all training time goes; backward rebuilds the columns from the
padded input, which is kernel / stride times smaller. An eval conv
with stride 1 builds no columns: it sums one GEMM per tap, that tap's
weights times the padded input shifted by tap * dilation, so its memory
is the output's, not kernel times the input's.

Cache contract: forward(x, train=True) is the training path and keeps
what backward() needs, in its smallest exact form: the conv's padded
input, batchnorm's normalized input, leaky ReLU's and dropout's bool
masks, the linear input, and the BiLSTM's input, gate outputs and cells
(see ddkseg.nn.lstm). A cache may reference x itself, so x must not
change before backward().
backward() takes the cache and drops it, so each cache lives from its
train forward until its own backward and no longer: a layer runs backward
once per train forward (a second backward, or one after an eval forward,
raises ValueError). forward(x) with
train=False is the inference path: the layer keeps nothing for backward
(and drops any cache an earlier forward left). In both modes a forward
may write its output into x's memory, so the caller must not need x
again; dropout's backward likewise writes into dout. In a Segmenter
every other layer's input is an array the layer below made, and conv 0,
whose input is the caller's batch, writes into a new one, so the model
never writes into that batch.

The training kernels make few passes and few temporaries, and each
element still goes through the same floating-point operations in the same
order as the plain textbook form (tests/backward_reference.py checks the
bits): leaky ReLU is eval's maximum, and its backward multiplies dout by
a factor that is exactly LEAKY_SLOPE or 1, not an np.where select;
batchnorm takes x - mean once for both the variance (x.var's own steps,
the squares in x's memory) and xhat, writes its output into x, and runs
its backward through two buffers; dropout multiplies in place. Eval
batchnorm applies one per-channel scale and shift.

Weight gradients: Conv1d, Linear and the BiLSTM put their parameter
gradients in self.grads as soon as backward has its dx, but fill them
through Layer._later, which submits the job to the helper of the
Segmenter.backward running (threads._Helpers, one helper on two or more
CPUs while BLAS runs on one thread; otherwise, and outside a
Segmenter.backward, the job runs inline). Segmenter.backward joins its
helper before it returns, so every gradient is complete then. A job
writes only into arrays the calling thread allocated for it, and reads
arrays that nothing writes until Segmenter.backward returns.
"""

from __future__ import annotations

import numpy as np

from .ops import kaiming_uniform

# BatchNorm1d's running-moment update weight, and its variance floor.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
# The negative-side slope of every LeakyReLU.
LEAKY_SLOPE = 0.01


class Layer:
    """Base: holds params/grads dicts; subclasses implement forward/backward."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None  # what backward() needs, from the last train forward
        self._jobs = None  # the helper of the Segmenter.backward running, during one

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self):
        """Return the cache the last train forward kept and drop the layer's
        reference to it, so it is freed once backward is done with it.
        Raise ValueError if there is none: the last forward ran in eval
        mode, or its backward already ran."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise ValueError(f"{type(self).__name__}.backward needs a forward(..., train=True) first")
        return cache

    def _later(self, job) -> None:
        """Hand job() to the running Segmenter.backward's helper, or run it
        now when none is running."""
        if self._jobs is None:
            job()
        else:
            self._jobs.submit(job)

    def extra_state(self) -> dict[str, np.ndarray]:
        """Non-trainable arrays that still belong in checkpoints."""
        return {}


def conv_output_length(in_length: int, kernel: int, stride: int, padding: int, dilation: int = 1) -> int:
    eff = dilation * (kernel - 1) + 1
    return (in_length + 2 * padding - eff) // stride + 1


class Conv1d(Layer):
    def __init__(self, in_channels: int, out_channels: int, kernel: int, stride: int = 1,
                 padding: int = 0, dilation: int = 1, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        super().__init__()
        if stride < 1 or dilation < 1 or kernel < 1:
            raise ValueError("kernel, stride and dilation must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        rng = rng or np.random.default_rng(0)
        self.params = {
            "weight": kaiming_uniform(rng, (out_channels, in_channels, kernel), in_channels * kernel, dtype),
            "bias": np.zeros(out_channels, dtype=dtype),
        }

    def forward(self, x, train=False, rng=None, *, pad=None):
        """pad=(left, right) replaces the layer's own zero padding for this
        call, so a caller that hands in a slice of a longer input can pad
        only the sides where that slice meets the real edge."""
        batch, channels, length = x.shape
        if channels != self.in_channels:
            raise ValueError(f"conv1d expects {self.in_channels} input channels, got {channels}")
        left, right = (self.padding, self.padding) if pad is None else pad
        out_len = conv_output_length(length + left + right, self.kernel, self.stride, 0, self.dilation)
        if out_len <= 0:
            raise ValueError(f"conv1d input length {length} too short for kernel "
                             f"{self.kernel} (dilation {self.dilation}, padding {left}, {right})")
        xp = x
        if left or right:
            xp = np.empty((batch, channels, left + length + right), dtype=x.dtype)
            xp[:, :, :left] = 0
            xp[:, :, left:left + length] = x
            xp[:, :, left + length:] = 0
        self._cache = (xp, left, length) if train else None
        if not train and self.stride == 1:
            return self._tap_gemms(xp, out_len)
        w2 = self.params["weight"].reshape(self.out_channels, -1)
        out = np.matmul(w2, self._columns(xp, out_len))
        out += self.params["bias"][None, :, None]
        return out

    def _columns(self, xp, out_len, out=None):
        """im2col of the padded input, (batch, in_channels * kernel, out_len),
        filled one tap at a time into out (allocated if None): row
        c * kernel + tap holds channel c read from tap * dilation on, every
        stride-th sample."""
        batch = xp.shape[0]
        span = (out_len - 1) * self.stride + 1
        if out is None:
            out = np.empty((batch, self.in_channels * self.kernel, out_len), dtype=xp.dtype)
        cols = out.reshape(batch, self.in_channels, self.kernel, out_len)
        for tap in range(self.kernel):
            lo = tap * self.dilation
            cols[:, :, tap, :] = xp[:, :, lo:lo + span:self.stride]
        return out

    def _tap_gemms(self, xp, out_len):
        """Stride-1 output as one GEMM per tap: weight[:, :, tap] times the
        padded input shifted by tap * dilation, summed, with no columns built
        and no copy of the weight made here."""
        w = self.params["weight"]
        out = np.matmul(w[:, :, 0], xp[:, :, :out_len])
        if self.kernel > 1:
            term = np.empty_like(out)
            for tap in range(1, self.kernel):
                lo = tap * self.dilation
                out += np.matmul(w[:, :, tap], xp[:, :, lo:lo + out_len], out=term)
        out += self.params["bias"][None, :, None]
        return out

    def backward(self, dout):
        xp, left, length = self._take_cache()
        batch, _, out_len = dout.shape
        w2 = self.params["weight"].reshape(self.out_channels, -1)

        db = np.empty(self.out_channels, dtype=dout.dtype)
        dw2 = np.empty(w2.shape, dtype=np.result_type(dout, xp))
        cols = np.empty((batch, w2.shape[1], out_len), dtype=xp.dtype)
        per_window = np.empty((batch,) + w2.shape, dtype=dw2.dtype)

        def weight_grads():
            np.sum(dout, axis=(0, 2), out=db)
            np.matmul(dout, self._columns(xp, out_len, out=cols).transpose(0, 2, 1), out=per_window)
            np.sum(per_window, axis=0, out=dw2)

        self._later(weight_grads)
        self.grads["bias"] = db
        self.grads["weight"] = dw2.reshape(self.params["weight"].shape)

        dcols = np.matmul(w2.T, dout).reshape(batch, self.in_channels, self.kernel, out_len)
        dxp = np.zeros(xp.shape, dtype=dout.dtype)
        span = (out_len - 1) * self.stride + 1
        for tap in range(self.kernel):
            lo = tap * self.dilation
            dxp[:, :, lo:lo + span:self.stride] += dcols[:, :, tap, :]
        return dxp[:, :, left:left + length]


class BatchNorm1d(Layer):
    def __init__(self, channels: int, dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.params = {
            "gamma": np.ones(channels, dtype=dtype),
            "beta": np.zeros(channels, dtype=dtype),
        }
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def extra_state(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, train=False, rng=None):
        if x.shape[1] != self.channels:
            raise ValueError(f"batchnorm expects {self.channels} channels, got {x.shape[1]}")
        if not train:
            scale = self.params["gamma"] / np.sqrt(self.running_var + BN_EPS)
            x *= scale[:, None]
            x += (self.params["beta"] - self.running_mean * scale)[:, None]
            self._cache = None
            return x
        n = x.shape[0] * x.shape[2]
        mean = x.mean(axis=(0, 2))
        # x.var's own steps, sharing x - mean with xhat: the squares go into
        # x's memory, which then takes the output.
        xhat = x - mean[None, :, None]
        np.square(xhat, out=x)
        var = np.add.reduce(x, axis=(0, 2)) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std[None, :, None]
        unbiased = var * (n / (n - 1)) if n > 1 else var
        self.running_mean += BN_MOMENTUM * (mean - self.running_mean)
        self.running_var += BN_MOMENTUM * (unbiased - self.running_var)
        self._cache = (xhat, inv_std)
        np.multiply(self.params["gamma"][None, :, None], xhat, out=x)
        x += self.params["beta"][None, :, None]
        return x

    def backward(self, dout):
        xhat, inv_std = self._take_cache()
        gamma = self.params["gamma"]
        n = dout.shape[0] * dout.shape[2]
        # The textbook expression, evaluated in its own order through two
        # buffers: dx = (inv_std / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
        # with dxhat = dout * gamma.
        dx = np.empty(dout.shape, dtype=np.result_type(dout, xhat))
        term = np.empty_like(dx)
        self.grads["gamma"] = np.add.reduce(np.multiply(dout, xhat, out=term), axis=(0, 2))
        self.grads["beta"] = np.add.reduce(dout, axis=(0, 2))
        np.multiply(dout, gamma[None, :, None], out=dx)
        sum_dxhat = np.add.reduce(dx, axis=(0, 2))[None, :, None]
        sum_dxhat_xhat = np.add.reduce(np.multiply(dx, xhat, out=term), axis=(0, 2))[None, :, None]
        dx *= n
        dx -= sum_dxhat
        dx -= np.multiply(xhat, sum_dxhat_xhat, out=term)
        return np.multiply(inv_std[None, :, None] / n, dx, out=dx)


class LeakyReLU(Layer):
    def forward(self, x, train=False, rng=None):
        self._cache = x < 0 if train else None
        return np.maximum(x, x * x.dtype.type(LEAKY_SLOPE), out=x)

    def backward(self, dout):
        neg = self._take_cache()
        # Exactly LEAKY_SLOPE where x < 0 and 1 elsewhere, so each product
        # is dout * LEAKY_SLOPE or dout itself.
        factor = neg * dout.dtype.type(LEAKY_SLOPE)
        factor += ~neg
        factor *= dout
        return factor


class Dropout(Layer):
    """Inverted dropout: train scales survivors by 1/(1-p); eval is identity.

    Training keeps a bool keep-mask and applies it as (x * keep) * scale,
    with scale = dtype(1) / (1 - p): the same bits, signed zeros included,
    as multiplying by the float mask keep / (1 - p). At p == 0 it draws
    nothing and keeps the scalar mask True, so backward passes dout on
    but, like every layer's, runs once per train forward.
    """

    def __init__(self, p: float):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x, train=False, rng=None):
        self._cache = np.True_ if train and self.p == 0.0 else None
        if not train or self.p == 0.0:
            return x
        if rng is None:
            raise ValueError("dropout in train mode needs an rng")
        keep = rng.random(x.shape, dtype=np.float32) >= self.p
        self._cache = keep
        return self._apply(x, keep)

    def backward(self, dout):
        keep = self._take_cache()
        return dout if self.p == 0.0 else self._apply(dout, keep)

    def _apply(self, x, keep):
        np.multiply(x, keep, out=x)
        x *= x.dtype.type(1) / (1.0 - self.p)
        return x


class Linear(Layer):
    """Affine map over the last axis."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        self.params = {
            "weight": kaiming_uniform(rng, (out_features, in_features), in_features, dtype),
            "bias": np.zeros(out_features, dtype=dtype),
        }

    def forward(self, x, train=False, rng=None):
        if x.shape[-1] != self.in_features:
            raise ValueError(f"linear expects {self.in_features} features, got {x.shape[-1]}")
        x2 = x.reshape(-1, self.in_features)
        out = x2 @ self.params["weight"].T + self.params["bias"]
        self._cache = (x2, x.shape) if train else None
        return out.reshape(x.shape[:-1] + (self.out_features,))

    def backward(self, dout):
        x2, x_shape = self._take_cache()
        d2 = dout.reshape(-1, self.out_features)
        dw = np.empty(self.params["weight"].shape, dtype=np.result_type(d2, x2))
        db = np.empty(self.out_features, dtype=dout.dtype)

        def weight_grads():
            np.matmul(d2.T, x2, out=dw)
            np.sum(d2, axis=0, out=db)

        self._later(weight_grads)
        self.grads["weight"] = dw
        self.grads["bias"] = db
        return (d2 @ self.params["weight"]).reshape(x_shape)


class Sequential(Layer):
    """Chains layers; named_params flattens to "<idx>.<name>" keys."""

    def __init__(self, layers: list[Layer]):
        super().__init__()
        self.layers = layers

    def forward(self, x, train=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, dout):
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def named_params(self) -> dict[str, np.ndarray]:
        return {f"{i}.{k}": v for i, layer in enumerate(self.layers) for k, v in layer.params.items()}

    def named_grads(self) -> dict[str, np.ndarray]:
        return {f"{i}.{k}": v for i, layer in enumerate(self.layers) for k, v in layer.grads.items()}
