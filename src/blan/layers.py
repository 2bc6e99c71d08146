"""Neural-network layers over the autodiff engine.

Modules own parameter Tensors and optional non-trainable buffers
(batchnorm running statistics). State iteration order is attribute
definition order, which fixes the layout of checkpoints.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import Tensor


class Module:
    """Base class: tracks parameters, buffers and train/eval mode."""

    def __init__(self):
        self.training = True

    def __call__(self, *args):
        return self.forward(*args)

    def _modules(self):
        """This module, then every module below it, depth first in definition order."""
        yield self
        for value in vars(self).values():
            items = value if isinstance(value, (list, tuple)) else (value,)
            for item in items:
                if isinstance(item, Module):
                    yield from item._modules()

    def parameters(self):
        """Trainable tensors in definition order."""
        return [value for m in self._modules() for value in vars(m).values()
                if isinstance(value, Tensor)]

    def buffers(self):
        """Non-trainable state arrays (running statistics) in definition order."""
        return [value for m in self._modules() for name, value in vars(m).items()
                if isinstance(value, np.ndarray) and name.startswith("running_")]

    def state_arrays(self):
        """Parameters followed by buffers; the checkpoint serialization order."""
        return [p.data for p in self.parameters()] + self.buffers()

    def train(self):
        for m in self._modules():
            m.training = True
        return self

    def eval(self):
        for m in self._modules():
            m.training = False
        return self

    def freeze(self):
        """Stop gradients to every parameter and drop those already held, so
        an optimizer step leaves a frozen parameter as it is, and switch to
        eval mode, so a forward leaves the batch statistics as they are."""
        for p in self.parameters():
            p.requires_grad = False
            p.zero_grad()
        return self.eval()

    def astype(self, dtype):
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self

    def num_parameters(self):
        return sum(p.size for p in self.parameters())


# values per draw of init_normal: a weight of up to one chunk is one draw
CHUNK = 2 ** 20


def init_normal(rng, *shape):
    """A trainable float32 weight of the given shape, drawn from N(0, 0.02).

    The DCGAN/pix2pix convention the paper's networks follow. The normals are
    drawn in float32 and scaled in place, with no float64 buffer and no cast.
    This is the only place a weight is drawn.

    The flat weight is cut into chunks of CHUNK values. Chunk 0 is drawn from
    rng itself and chunk c >= 1 from the c-th child of ``rng.spawn(n - 1)``,
    so a weight of one chunk is rng's plain draw and leaves rng as that draw
    does. The chunks are drawn over the cores (``engine._fan_out``): at the
    paper's widths the 41.8M-value generator spends most of its set-up here.
    Which thread draws a chunk does not change its values, so a weight
    depends on rng alone, not on the core count.
    """
    w = np.empty(shape, dtype=np.float32)
    flat = w.reshape(-1)
    n = max(1, -(-flat.size // CHUNK))
    rngs = [rng, *rng.spawn(n - 1)] if n > 1 else [rng]

    def fill(lo, hi):
        for c in range(lo, hi):
            chunk = flat[c * CHUNK : (c + 1) * CHUNK]
            rngs[c].standard_normal(out=chunk, dtype=np.float32)
            chunk *= np.float32(0.02)

    engine._fan_out(fill, n, min(engine._CORES, n))
    return Tensor(w, requires_grad=True)


class Conv2d(Module):
    def __init__(self, in_ch, out_ch, kernel, stride=1, pad=0, *, rng):
        super().__init__()
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = kernel, stride, pad
        self.weight = init_normal(rng, out_ch, in_ch, kernel, kernel)
        self.bias = Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True)

    def forward(self, x):
        return engine.conv2d(x, self.weight, self.bias, stride=self.stride, pad=self.pad)


class ConvTranspose2d(Module):
    def __init__(self, in_ch, out_ch, kernel, stride=1, pad=0, *, rng):
        super().__init__()
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = kernel, stride, pad
        self.weight = init_normal(rng, out_ch, kernel, kernel, in_ch)
        self.bias = Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True)

    def forward(self, x):
        return engine.conv_transpose2d(x, self.weight, self.bias, stride=self.stride, pad=self.pad)


class BatchNorm2d(Module):
    def __init__(self, ch):
        super().__init__()
        self.gamma = Tensor(np.ones(ch, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(ch, dtype=np.float32), requires_grad=True)
        self.running_mean = np.zeros(ch, dtype=np.float32)
        self.running_var = np.ones(ch, dtype=np.float32)

    def forward(self, x):
        return engine.batchnorm2d(
            x, self.gamma, self.beta, self.running_mean, self.running_var, self.training
        )


class Linear(Module):
    def __init__(self, in_dim, out_dim, *, rng):
        super().__init__()
        self.weight = init_normal(rng, in_dim, out_dim)
        self.bias = Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True)

    def forward(self, x):
        return engine.matmul(x, self.weight) + self.bias


class ReLU(Module):
    def forward(self, x):
        return engine.relu(x)


class LeakyReLU(Module):
    def forward(self, x):
        return engine.leaky_relu(x)


class Sigmoid(Module):
    def forward(self, x):
        return engine.sigmoid(x)


class Tanh(Module):
    def forward(self, x):
        return engine.tanh(x)


class Sequential(Module):
    def __init__(self, *mods):
        super().__init__()
        self.mods = list(mods)

    def forward(self, x):
        for m in self.mods:
            x = m(x)
        return x

