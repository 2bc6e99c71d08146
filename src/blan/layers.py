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

    def _children(self):
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def parameters(self):
        """Trainable tensors in definition order."""
        out = []
        for value in vars(self).values():
            if isinstance(value, Tensor):
                out.append(value)
        for child in self._children():
            out.extend(child.parameters())
        return out

    def buffers(self):
        """Non-trainable state arrays (running statistics) in definition order."""
        out = []
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray) and name.startswith("running_"):
                out.append(value)
        for child in self._children():
            out.extend(child.buffers())
        return out

    def state_arrays(self):
        """Parameters followed by buffers; the checkpoint serialization order."""
        return [p.data for p in self.parameters()] + self.buffers()

    def train(self):
        self.training = True
        for child in self._children():
            child.train()
        return self

    def eval(self):
        self.training = False
        for child in self._children():
            child.eval()
        return self

    def freeze(self):
        for p in self.parameters():
            p.requires_grad = False
        return self

    def astype(self, dtype):
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self

    def num_parameters(self):
        return sum(p.size for p in self.parameters())


def init_normal(rng, *shape):
    return Tensor(rng.normal(0.0, 0.02, size=shape).astype(np.float32), requires_grad=True)


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
        # conv layout (in_ch filters of out_ch channels): the layer applies the
        # adjoint of a conv2d that maps out_ch -> in_ch. The memory order is
        # (out_ch, k, k, in_ch), so the forward GEMM reads w2.T contiguously
        # (engine docstring). Same draws and values as init_normal(rng, in_ch,
        # out_ch, k, k), drawn in slabs of input channels: one big strided
        # transpose would miss the TLB on every element.
        buf = np.empty((out_ch, kernel, kernel, in_ch), dtype=np.float32)
        for lo in range(0, in_ch, 64):
            slab = rng.normal(0.0, 0.02, size=(min(64, in_ch - lo), out_ch, kernel, kernel))
            buf[..., lo : lo + len(slab)] = slab.transpose(1, 2, 3, 0)
        self.weight = Tensor(buf.transpose(3, 0, 1, 2), requires_grad=True)
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

