"""Neural-network layers over the autodiff engine.

Modules own parameter Tensors and optional non-trainable buffers
(batchnorm running statistics). State iteration order is attribute
definition order, which fixes the layout of checkpoints. A module starts
in train mode, as a class default that ``train()``, ``eval()`` and
``freeze()`` override per instance, so a subclass's constructor calls no
base constructor.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import Tensor


class Module:
    """Base class: tracks parameters, buffers and train/eval mode."""

    training = True  # the class default: every module starts out in train mode

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
# pairs whose cosines init_normal holds at once: its one temporary, 64 KB
COS_BLOCK = 2 ** 14


def init_normal(rng, *shape):
    """A trainable float32 weight of the given shape, drawn from N(0, 0.02).

    The DCGAN/pix2pix convention the paper's networks follow. This is the
    only place a weight is drawn, and it draws no float64.

    The flat weight is cut into chunks of CHUNK values. Chunk 0 is drawn from
    rng itself and chunk c >= 1 from the c-th child of ``rng.spawn(n - 1)``,
    so a weight of one chunk is rng's own draw (``rng.spawn(0)`` changes
    nothing). ``engine._fan_out`` draws the chunks in its blocks; the thread
    that draws a chunk does not change it, so a weight depends on rng alone.

    A chunk of m values is a float32 Box-Muller transform of 2h uniforms
    ``u = rng.random(2h, dtype=float32)``, h = ceil(m / 2): uniform i of the
    first half and uniform i of the second make the pair
    r = 0.02 sqrt(-2 log1p(-u[i])), theta = 2 pi u[h + i], which gives value i
    as r cos(theta) and value h + i, if the chunk has it, as r sin(theta). The
    scale 0.02 rides in r, half as many values as the weight. The uniforms are
    multiples of 2**-24 below 1, so |w| <= 0.02 sqrt(48 ln 2) ~= 0.1154, a
    cut at 5.77 sigma past which an uncut normal would put about 0.3 of the
    paper-scale G's 41.8M weights. The uniforms are the same on every CPU,
    but the weight's bytes depend on numpy's float32 log1p, sin and cos,
    which another CPU may round otherwise. The first m uniforms are drawn
    into the chunk and transformed there, so the one temporary holds
    COS_BLOCK cosines. A value costs about 4 ns on a 2-core x86 host with
    numpy 2.4, against 12 ns for numpy's float32 ziggurat normal and a
    scaling pass.
    """
    w = np.empty(shape, dtype=np.float32)
    flat = w.reshape(-1)
    n = max(1, -(-flat.size // CHUNK))
    rngs = [rng, *rng.spawn(n - 1)]

    def fill(lo, hi):
        for c in range(lo, hi):
            chunk = flat[c * CHUNK : (c + 1) * CHUNK]
            h = chunk.size - chunk.size // 2  # pairs; for an odd size the last has no sine
            k = chunk.size - h  # values drawn as a sine
            rngs[c].random(out=chunk, dtype=np.float32)
            odd = rngs[c].random(h - k, dtype=np.float32)  # u[2h - 1] when it is not in the chunk
            r, theta = chunk[:h], chunk[h:]
            np.negative(r, out=r)
            np.log1p(r, out=r)
            r *= np.float32(-2.0)
            np.sqrt(r, out=r)
            r *= np.float32(0.02)
            theta *= np.float32(2 * np.pi)
            odd *= np.float32(2 * np.pi)
            cos = np.empty(min(k, COS_BLOCK), np.float32)
            for i in range(0, k, COS_BLOCK):
                th = theta[i : i + COS_BLOCK]
                t = np.cos(th, out=cos[: th.size])
                np.sin(th, out=th)
                th *= r[i : i + th.size]
                r[i : i + th.size] *= t
            r[k:] *= np.cos(odd)

    engine._fan_out(fill, n)
    return Tensor(w, requires_grad=True)


class Conv2d(Module):
    def __init__(self, in_ch, out_ch, kernel, stride=1, pad=0, *, rng):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = kernel, stride, pad
        self.weight = init_normal(rng, out_ch, in_ch, kernel, kernel)
        self.bias = Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True)

    def forward(self, x):
        return engine.conv2d(x, self.weight, self.bias, stride=self.stride, pad=self.pad)


class ConvTranspose2d(Module):
    def __init__(self, in_ch, out_ch, kernel, stride=1, pad=0, *, rng):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = kernel, stride, pad
        self.weight = init_normal(rng, out_ch, kernel, kernel, in_ch)
        self.bias = Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True)

    def forward(self, x):
        return engine.conv_transpose2d(x, self.weight, self.bias, stride=self.stride, pad=self.pad)


class BatchNorm2d(Module):
    def __init__(self, ch):
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
        self.mods = list(mods)

    def forward(self, x):
        for m in self.mods:
            x = m(x)
        return x

