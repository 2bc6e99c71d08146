"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and optionally records the primitive operation
that produced it. Calling ``backward()`` on a scalar root walks the
recorded graph in reverse topological order and accumulates gradients
into every reachable tensor that has ``requires_grad`` set.

A graph is walked once. As each node is walked it drops its closure and
parent links and keeps ``op``, so the patch matrices, saved inputs and
gradients that no node still to be walked needs are freed during the walk,
by refcounts alone: a closure holds its inputs, never its own node.
A tensor the caller holds keeps its data and ``.grad``. Walking a node again
(``backward()`` twice on one root, or on a root built on a walked tensor)
raises ``ValueError("backward(): the graph through <op> was freed by an
earlier backward()")`` before any gradient changes. A leaf records no graph,
so its gradient accumulates over any number of walks.

Training runs in float32; gradient checks run the same code in float64
(every op inherits the dtype of its inputs). An op whose input gradients are
independent of each other is only its forward value and one (input,
gradient) edge per input, passed to ``_op``, which records the node and
hands each gradient to ``Tensor._accumulate``; one-input ops pass their
expressions to ``_unary``, which calls ``_op``. Only ``conv2d``,
``conv_transpose2d`` and ``batchnorm2d`` write their own backward closure
for ``_make``, since their input gradients share work: g lowered once,
``xhat`` formed once.

Convolutions are lowered to one 2-D GEMM per call, forward and backward.
The patch matrix has channels x taps as rows (C*kh*kw) and one column per
output pixel, the batch folded in (N*OH*OW), so a conv2d forward is (F,
C*kh*kw) @ (C*kh*kw, N*OH*OW) and its gradients fold g to (F, N*OH*OW) once.

The patch matrix is built from *phase planes*: pixel (y, x) of a channel and
image lies in plane (y mod stride, x mod stride), stored with row pitch
max(OW, ceil(W/stride)) and zero rows above and below. Tap (i, j) reads plane
((i - pad) mod stride, (j - pad) mod stride) in an OH x OW window that starts
at one fixed flat offset, its rows one pitch apart; the window entries that
wrap across a plane row fall on padding and are zeroed. ``_col2im`` adds the
same windows back, one plane at a time, in (i, j) order. Where the pitch is
OW or there is one output row, as in every conv of the model, a window is
one contiguous run of OH*OW values.

``_fan_out`` is the one way work reaches the cores: it runs contiguous
blocks of range(n), the last on the calling thread and the others on a pool
of one thread per further core, and returns once all have finished. It has
three callers: ``networks`` fans out the batch shards of a no-grad inference
call, ``_gemm`` the row blocks of a forward conv GEMM inside
``_split_gemms()``, which ``networks`` enters for a call it cannot shard,
such as a single image (backward GEMMs never split), and
``layers.init_normal`` the chunks of a weight of more than one chunk. The
grad mode and the split belong to the calling thread, so a pool thread runs
with neither: a shard enters ``no_grad`` itself. No pool thread waits on the
pool: ``_fan_out`` called on a pool thread runs every block on that thread,
so a layer built there draws its weight on that thread alone.

Three rules keep the kernels cheap:

* No ``np.where`` on activation-sized arrays. With a random-sign condition
  it is several times slower than the arithmetic it selects between, so
  selections are written as ``np.maximum`` or as products with a boolean
  mask, in the input's dtype (a python float times a bool array would
  promote to float64).
* ``Tensor._accumulate`` keeps a first gradient that is a writable
  C-contiguous array of the tensor's dtype and shares no memory with the
  ``g`` it was computed from: as a backward reads only g and the inputs,
  that is an array it has just allocated (products, GEMM results,
  reductions, scatter buffers). Anything else -- ``g`` or a view of it from
  reshape, transpose, concat or sum -- is copied, so no two gradients share
  memory. ``_col2im`` likewise takes ownership of the patch matrix it is
  given and writes zeros into it, so its callers pass a new GEMM product.
* Every parameter is stored in the layout its GEMM reads, so BLAS never
  packs a transposed weight: a conv_transpose2d weight is (C, kh, kw, F).
  Any other memory order gives the same values, only slower.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np


class ShapeError(ValueError):
    """Raised when an operation receives incompatible array shapes."""


class NumericalError(ArithmeticError):
    """Raised when a non-finite value is encountered where one must not be."""


class _ThreadState(threading.local):
    grad = True  # the class defaults: every thread starts out recording
    split = False  # and runs each GEMM whole
    pooled = False  # set on the pool's own threads as they start


_state = _ThreadState()


@contextlib.contextmanager
def _setting(name, value):
    """The calling thread's _state.<name> set to value inside the block."""
    prev = getattr(_state, name)
    setattr(_state, name, value)
    try:
        yield
    finally:
        setattr(_state, name, prev)


def no_grad():
    """Disable graph recording inside the block (inference / detached math).

    The flag belongs to the calling thread: a block in one thread neither
    stops another thread from recording nor reaches work it hands to the
    pool (see ``_fan_out``).
    """
    return _setting("grad", False)


def _split_gemms():
    """Split the calling thread's forward conv GEMMs inside the block (``_gemm``)."""
    return _setting("split", True)


# the cores this process may run on, one block of a _fan_out each
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# the threads that run every block but the caller's own, started at the first
# submit; max(1, ...) as the executor rejects 0 workers (one core never submits)
_pool = ThreadPoolExecutor(max(1, _CORES - 1), thread_name_prefix="blan-worker",
                           initializer=setattr, initargs=(_state, "pooled", True))


def _fan_out(task, n, k):
    """[task(lo, hi) for k contiguous blocks of range(n)], the last on the
    calling thread. Once every block has finished, a failed block's error is
    raised: the calling thread's own, else the first failed pool block's.

    Called on a pool thread, it runs every block on that thread in order: a
    pool thread that waited on a block queued behind itself would never wake.
    """
    cuts = [n * i // k for i in range(k + 1)]
    blocks = list(zip(cuts[:-1], cuts[1:]))
    if _state.pooled:
        return [task(lo, hi) for lo, hi in blocks]
    futures = [_pool.submit(task, lo, hi) for lo, hi in blocks[:-1]]
    try:
        last = task(*blocks[-1])
    finally:
        wait(futures)
    return [f.result() for f in futures] + [last]


def _gemm(a, b):
    """a @ b; inside _split_gemms its rows are cut into one block per core,
    each of which writes its rows of the caller's output."""
    k = _CORES if _state.split else 1
    if k < 2 or a.shape[0] < k:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))

    def block(lo, hi):
        return np.matmul(a[lo:hi], b, out=out[lo:hi])

    _fan_out(block, a.shape[0], k)
    return out


class Tensor:
    """N-dimensional array with optional gradient tracking.

    data          -- numpy array (float32 at training precision, float64 for checks)
    requires_grad -- participate in backward passes
    grad          -- same-shape gradient buffer, populated by backward()
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self.op = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, op={self.op}{tag})"

    def item(self):
        return self.data.item()

    def detach(self):
        """A view of the same data outside the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    # -- graph mechanics ----------------------------------------------------

    def _accumulate(self, grad, upstream):
        """Add grad, computed from the array upstream, to self.grad (see the module docstring)."""
        if self.grad is not None:
            self.grad += grad
        elif (isinstance(grad, np.ndarray) and grad.dtype == self.data.dtype
              and grad.flags.c_contiguous and grad.flags.writeable
              and not np.may_share_memory(grad, upstream)):
            self.grad = grad
        else:
            self.grad = np.array(grad, dtype=self.data.dtype, order="C")

    def backward(self):
        """Accumulate gradients of this scalar into every reachable tensor.

        The graph is walked once: each node drops its closure and parent
        links as it is walked, so whatever no node still to be walked needs
        is freed during the walk. A second walk through a node (this call
        repeated, or a root built on a walked tensor) raises
        ``ValueError("backward(): the graph through <op> was freed by an
        earlier backward()")`` before any gradient changes. A leaf records
        no graph, so a leaf root accumulates 1 on every call.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar root, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            # built under no_grad or from detached or constant inputs: no
            # gradient would reach any tensor
            raise ValueError("backward(): the root records no graph and requires no grad")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.op is not None and node._backward is None:
                raise ValueError(
                    f"backward(): the graph through {node.op} was freed by an earlier backward()"
                )
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data), None)
        while topo:
            node = topo.pop()
            backward, node._backward, node._parents = node._backward, None, ()
            if backward is not None and node.grad is not None:
                backward(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(x):
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float)):
        # python scalars must not upcast float32 tensors to float64
        return Tensor(np.float32(x))
    return Tensor(x)


def _make(data, parents, backward, op):
    """Wrap an op result, recording the graph edge when tracking is on."""
    req = _state.grad and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = tuple(parents)
        out._backward = backward
        out.op = op
    return out


def _op(data, op, *edges):
    """Record data as the output of op. Each edge is (x, grad): an input x,
    whose gradient grad(g) runs at backward time only if x requires grad and
    is kept or copied by x._accumulate (see the module docstring)."""

    def backward(g):
        for x, grad in edges:
            if x.requires_grad:
                x._accumulate(grad(g), g)

    return _make(data, [x for x, _ in edges], backward, op)


def _unary(a, forward, grad, op):
    """A one-input op: out = forward(x), and x's gradient is grad(g, x, out),
    which reads x at backward time."""
    a = as_tensor(a)
    out = forward(a.data)
    return _op(out, op, (a, lambda g: grad(g, a.data, out)))


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise arithmetic --------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data + b.data, "add", (a, lambda g: _unbroadcast(g, a.data.shape)),
               (b, lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data - b.data, "sub", (a, lambda g: _unbroadcast(g, a.data.shape)),
               (b, lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _op(a.data * b.data, "mul",
               (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
               (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def tabs(a):
    """Elementwise absolute value; the subgradient at 0 is defined as 0."""
    return _unary(a, np.abs, lambda g, x, out: g * np.sign(x), "abs")


def tlog(a):
    return _unary(a, np.log, lambda g, x, out: g / x, "log")


# -- activations --------------------------------------------------------------


def relu(a):
    """max(x, 0): 0 for -inf and for -0, NaN stays NaN; the gradient is 1 above 0, else 0."""
    return _unary(a, lambda x: np.maximum(x, x.dtype.type(0)),
                  lambda g, x, out: g * (x > 0), "relu")


def leaky_relu(a):
    """Leaky ReLU with the constant slope LEAKY_SLOPE = 0.2 of every network.

    As max(x, 0.2*x) it is x above 0 and 0.2*x below, since 0 <= 0.2 <= 1.
    """
    # 1 where x > 0, else the slope: the bool mask is promoted to x's dtype
    return _unary(a, lambda x: np.maximum(x, x * x.dtype.type(LEAKY_SLOPE)),
                  lambda g, x, out: g * np.maximum(x > 0, x.dtype.type(LEAKY_SLOPE)),
                  "leaky_relu")


def sigmoid(a):
    def forward(x):
        # stable for both tails: 1/(1+e) for x >= 0, e/(1+e) below, with
        # e = exp(-|x|) <= 1, so max(e, x >= 0) selects the numerator
        e = np.exp(-np.abs(x))
        return np.maximum(e, x >= 0) / (1.0 + e)

    return _unary(a, forward, lambda g, x, out: g * out * (1.0 - out), "sigmoid")


def tanh(a):
    return _unary(a, np.tanh, lambda g, x, out: g * (1.0 - out * out), "tanh")


# -- reductions and reshaping --------------------------------------------------


def tsum(a):
    """The sum of every element, as a 0-d tensor."""
    return _unary(a, np.sum, lambda g, x, out: np.broadcast_to(g, x.shape), "sum")


def scale(a, s):
    """Multiply by a scalar constant matched to the tensor's dtype."""
    a = as_tensor(a)
    return mul(a, Tensor(np.asarray(s, dtype=a.data.dtype)))


def tmean(a):
    a = as_tensor(a)
    if a.data.size == 0:
        raise ShapeError(f"tmean: the mean of an empty tensor, shape {a.data.shape}")
    return scale(tsum(a), 1.0 / float(a.data.size))


def reshape(a, shape):
    return _unary(a, lambda x: x.reshape(shape), lambda g, x, out: g.reshape(x.shape), "reshape")


def transpose(a, axes):
    if axes is None:
        raise TypeError("transpose: axes must be a permutation, not None")
    # the inverse permutation of the axes taken modulo ndim: argsort of a
    # negative axis would put it first
    return _unary(a, lambda x: x.transpose(axes),
                  lambda g, x, out: g.transpose(np.argsort(np.mod(axes, x.ndim))),
                  "transpose")


def getitem(a, key):
    """Basic indexing only: ints, slices, Ellipsis and None."""
    # an index array may repeat an element, and buf[key] += g would then
    # drop all but one of its gradient contributions
    keys = key if isinstance(key, tuple) else (key,)
    if any(isinstance(k, (list, np.ndarray)) for k in keys):
        raise TypeError("getitem: list and array keys are not supported")

    def grad(g, x, out):
        buf = np.zeros_like(x)
        buf[key] += g
        return buf

    # asarray, not ascontiguousarray: an all-integer key gives a 0-d result, as in numpy
    return _unary(a, lambda x: np.asarray(x[key], order="C"), grad, "getitem")


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    shapes = [t.data.shape for t in tensors]
    nd = len(shapes[0]) if shapes else 0
    # every shape without the axis must agree; the key's length tells the ndims apart
    if not -nd <= axis < nd or len({s[: axis % nd] + s[axis % nd + 1 :] for s in shapes}) != 1:
        raise ShapeError(f"concat: shapes {shapes} do not join along axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    bounds = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def slab(lo, hi):  # the view of g that holds one input along axis
        key = (slice(None),) * (axis % out.ndim) + (slice(lo, hi),)
        return lambda g: g[key]

    return _op(out, "concat", *((t, slab(lo, hi))
                                for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:])))


def matmul(a, b):
    """2-D matrix product for linear layers: (n, d) @ (d, m)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}"
        )
    return _op(a.data @ b.data, "matmul", (a, lambda g: g @ b.data.T),
               (b, lambda g: a.data.T @ g))


def softmax_cross_entropy(logits, labels):
    """Batch mean of -log softmax(logits)[i, labels[i]], as a 0-d tensor.

    logits is (N, C) and labels holds N integer class ids in [0, C). Each
    row's max is subtracted before exp, so any finite logits give a finite
    value. The gradient with respect to logits is (softmax - one-hot) / N.
    """
    logits, labels = as_tensor(logits), np.asarray(labels)
    x = logits.data
    if x.ndim != 2 or 0 in x.shape or labels.shape != x.shape[:1]:
        raise ShapeError(
            f"softmax_cross_entropy: expects (N, C) logits with N >= 1, C >= 1 and (N,) "
            f"labels, got {x.shape} and {labels.shape}"
        )
    n, c = x.shape
    if labels.dtype.kind not in "iu":
        raise TypeError(f"softmax_cross_entropy: labels must be integers, got {labels.dtype}")
    bad = labels[(labels < 0) | (labels >= c)]
    if bad.size:
        # a negative label would otherwise index from the end of its row
        raise ValueError(f"softmax_cross_entropy: label {bad[0]} outside [0, {c})")
    rows = np.arange(n)
    z = x - x.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))  # each sum is >= 1: its max term is exp(0)

    def grad(g):
        p = np.exp(z - logsum[:, None])
        p[rows, labels] -= 1
        p *= g / n
        return p

    return _op((logsum - z[rows, labels]).mean(), "softmax_cross_entropy", (logits, grad))


# -- spatial ops ----------------------------------------------------------------


def _conv_out_size(n, k, stride, pad):
    span = n + 2 * pad - k
    if span < 0 or span % stride != 0:
        raise ShapeError(
            f"conv geometry: size {n}, kernel {k}, stride {stride}, pad {pad} "
            "does not yield an integer output size"
        )
    return span // stride + 1


# Phase-plane geometry of one conv (see the module docstring). pitch is the
# row pitch of the planes, length the flat size of one plane and grid the flat
# slice of it that holds pixel rows; rows x cols is the largest plane, phase
# (0, 0). A phase is (a, b, rows, cols, kernel row slice, kernel column slice,
# taps), a tap (i, j, flat start of its OH x OW window). zeros lists (kernel
# column, output columns) to zero in every patch row.
_Lowering = namedtuple("_Lowering", "oh ow pitch length grid rows cols phases zeros")


@functools.lru_cache(maxsize=256)
def _lowering(h, w, kh, kw, s, pad):
    """Geometry of a kh x kw, stride s conv over an h x w image, computed once per shape."""
    oh = _conv_out_size(h, kh, s, pad)
    ow = _conv_out_size(w, kw, s, pad)
    pitch = max(ow, -(-w // s))
    # tap i reads pixel s*(o + d) + a for output o: plane a = (i - pad) % s of
    # that axis, at plane index o + d with d = (i - pad) // s
    base = -((-pad) // s) * (pitch + 1)  # tap (0, 0) reaches furthest back
    phases = []
    for a in range(s):
        for b in range(s):
            ki, kj = range((a + pad) % s, kh, s), range((b + pad) % s, kw, s)
            taps = tuple((i, j, base + (i - pad) // s * pitch + (j - pad) // s)
                         for i in ki for j in kj)
            phases.append((a, b, -(-(h - a) // s), -(-(w - b) // s),
                           slice(ki.start, kh, s), slice(kj.start, kw, s), taps))
    # window entries that wrap into the plane row before or after (padding)
    zeros = []
    for j in range(kw):
        d = (j - pad) // s
        if d < 0:
            zeros.append((j, slice(0, -d)))
        if pitch - d < ow:  # d > pitch reaches past the next row: zero all of it
            zeros.append((j, slice(max(0, pitch - d), ow)))
    rows, cols = -(-h // s), -(-w // s)
    # _col2im adds each window through a view of oh whole plane rows; a plane of
    # whole rows lets numpy prove that view free of self-overlap and skip a copy
    last = base + (kh - 1 - pad) // s * pitch + (kw - 1 - pad) // s + oh * pitch
    end = base + rows * pitch
    return _Lowering(oh, ow, pitch, -(-max(end, last) // pitch) * pitch, slice(base, end),
                     rows, cols, tuple(phases), tuple(zeros))


def _im2col(x, kh, kw, stride, pad):
    """(N,C,H,W) -> (C*kh*kw, N*OH*OW) patch matrix and its geometry.

    The batch is folded into the columns. One phase plane at a time holds
    the input, and one strided view copies the windows of all its taps.
    """
    n, c, h, w = x.shape
    geo = _lowering(h, w, kh, kw, stride, pad)
    patch = np.empty((c, kh, kw, n, geo.oh, geo.ow), dtype=x.dtype)
    plane = np.zeros((c, n, geo.length), dtype=x.dtype)
    grid = plane[:, :, geo.grid].reshape(c, n, geo.rows, geo.pitch)
    sc, sn, se = plane.strides
    view = (sc, geo.pitch * se, se, sn, geo.pitch * se, se)
    for a, b, ha, wb, ki, kj, taps in geo.phases:
        if not taps:
            continue
        grid[:, :, :ha, :wb] = x[:, :, a::stride, b::stride].transpose(1, 0, 2, 3)
        grid[:, :, ha:] = 0  # clear what the larger plane (0, 0) left
        grid[:, :, :ha, wb : geo.cols] = 0
        dst = patch[:, ki, kj]
        # tap (i + s*u, j + s*v) starts u plane rows and v entries after tap (i, j)
        dst[...] = np.ndarray(dst.shape, plane.dtype, plane, taps[0][2] * se, view)
    for j, cs in geo.zeros:
        patch[:, :, j, :, :, cs] = 0
    return patch.reshape(c * kh * kw, n * geo.oh * geo.ow), geo


def _col2im(cols, x_shape, kh, kw, stride, pad):
    """Adjoint of _im2col: add each tap's window back into its plane, in (i, j) order.

    Takes ownership of cols and writes zeros into it where _im2col writes them.
    """
    n, c, h, w = x_shape
    geo = _lowering(h, w, kh, kw, stride, pad)
    patch = cols.reshape(c, kh, kw, n, geo.oh, geo.ow)
    for j, cs in geo.zeros:
        patch[:, :, j, :, :, cs] = 0
    out = np.empty(x_shape, dtype=cols.dtype)
    plane = np.empty((c, n, geo.length), dtype=cols.dtype)
    grid = plane[:, :, geo.grid].reshape(c, n, geo.rows, geo.pitch)
    for a, b, ha, wb, _ki, _kj, taps in geo.phases:
        # a phase no tap reads (kernel smaller than stride) is written as zeros
        plane.fill(0)
        for i, j, start in taps:
            dst = plane[:, :, start : start + geo.oh * geo.pitch].reshape(c, n, geo.oh, geo.pitch)
            dst[..., : geo.ow] += patch[:, i, j]
        out[:, :, a::stride, b::stride] = grid[:, :, :ha, :wb].transpose(1, 0, 2, 3)
    return out


def _fold(a):
    """(N,F,H,W) -> (F, N*H*W): channels as rows, the batch in columns."""
    n, f, h, w = a.shape
    return a.transpose(1, 0, 2, 3).reshape(f, n * h * w)


def _unfold(a2, n, h, w):
    """Inverse of _fold: (F, N*H*W) -> contiguous (N,F,H,W)."""
    return np.ascontiguousarray(a2.reshape(a2.shape[0], n, h, w).transpose(1, 0, 2, 3))


def _conv_operands(op, x, weight, bias, channels, stride, pad):
    """The three operands as Tensors; x's channels must match weight.shape[channels],
    the bias must hold one value per output channel, weight.shape[0], and the
    stride must be positive and the padding not negative."""
    if stride < 1 or pad < 0:
        raise ShapeError(f"{op}: stride must be >= 1 and pad >= 0, got stride {stride}, pad {pad}")
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(
            f"{op} expects 4-d input and weight, got {x.data.shape} and {weight.data.shape}"
        )
    if x.data.shape[1] != weight.data.shape[channels]:
        raise ShapeError(
            f"{op}: input has {x.data.shape[1]} channels, weight expects "
            f"{weight.data.shape[channels]} (input {x.data.shape}, weight {weight.data.shape})"
        )
    if bias.data.shape != weight.data.shape[:1]:
        raise ShapeError(f"{op}: bias {bias.data.shape} does not match weight {weight.data.shape}")
    return x, weight, bias


def conv2d(x, weight, bias, stride=1, pad=0):
    """Cross-correlation of (N,C,H,W) with (F,C,kh,kw) filters, plus the required (F,) bias."""
    x, weight, bias = _conv_operands("conv2d", x, weight, bias, 1, stride, pad)
    f, c, kh, kw = weight.data.shape
    n = x.data.shape[0]
    cols, geo = _im2col(x.data, kh, kw, stride, pad)
    w2 = weight.data.reshape(f, c * kh * kw)
    out2 = _gemm(w2, cols)
    out2 += bias.data[:, None]

    def backward(g):
        g2 = _fold(g)
        if weight.requires_grad:
            weight._accumulate((g2 @ cols.T).reshape(weight.data.shape), g)
        if bias.requires_grad:
            bias._accumulate(g2.sum(axis=1), g)
        if x.requires_grad:
            x._accumulate(_col2im(w2.T @ g2, x.data.shape, kh, kw, stride, pad), g)

    return _make(_unfold(out2, n, geo.oh, geo.ow), (x, weight, bias), backward, "conv2d")


def conv_transpose2d(y, weight, bias, stride=1, pad=0):
    """Adjoint of conv2d, with a (C,kh,kw,F) weight plus the required (C,) bias.

    Maps (N,F,H,W) to (N,C,(H-1)*stride-2*pad+kh, ...): with a zero bias,
    exactly the gradient-with-respect-to-input of the conv2d whose (F,C,kh,kw)
    weight is w, so <conv2d(x,w,0), y> == <x, conv_transpose2d(y,
    w.transpose(1,2,3,0), 0)> holds by construction.
    """
    y, weight, bias = _conv_operands("conv_transpose2d", y, weight, bias, 3, stride, pad)
    c, kh, kw, f = weight.data.shape
    n, _, h, w = y.data.shape
    oh = (h - 1) * stride - 2 * pad + kh
    ow = (w - 1) * stride - 2 * pad + kw
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"conv_transpose2d geometry: input {y.data.shape} with kernel {kh}, "
            f"stride {stride}, pad {pad} gives non-positive output {oh}x{ow}"
        )
    w2 = weight.data.reshape(c * kh * kw, f)
    y2 = _fold(y.data)
    out = _col2im(_gemm(w2, y2), (n, c, oh, ow), kh, kw, stride, pad)
    out += bias.data[None, :, None, None]

    def backward(g):
        gcols, _ = _im2col(g, kh, kw, stride, pad)  # its output size is (h, w)
        if y.requires_grad:
            y._accumulate(_unfold(w2.T @ gcols, n, h, w), g)
        if weight.requires_grad:
            weight._accumulate((gcols @ y2.T).reshape(weight.data.shape), g)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)), g)

    return _make(out, (y, weight, bias), backward, "conv_transpose2d")


BN_MOMENTUM = 0.1  # weight of the batch statistics in the running averages
BN_EPS = 1e-5
LEAKY_SLOPE = 0.2  # every LeakyReLU in G, D_p, D_f and F


def batchnorm2d(x, gamma, beta, running_mean, running_var, training):
    """Channelwise batch normalization on (N,C,H,W).

    Training mode normalizes with per-batch statistics and updates the
    running buffers in place (exponential average); inference mode uses the
    running buffers. Gradients flow to x, gamma and beta in both modes.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm2d expects (N,C,H,W), got {x.data.shape}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"batchnorm2d: affine shape {gamma.data.shape}/{beta.data.shape} does not match {c} channels"
        )
    axes = (0, 2, 3)
    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        mean = running_mean.astype(x.data.dtype)
        var = running_var.astype(x.data.dtype)
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    # the affine map folded into one per-channel scale and shift
    sc = gamma.data * invstd
    out = x.data * sc[None, :, None, None]
    out += (beta.data - mean * sc)[None, :, None, None]
    m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]

    def backward(g):
        xhat = None
        if gamma.requires_grad or (training and x.requires_grad):
            xhat = (x.data - mean[None, :, None, None]) * invstd[None, :, None, None]
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=axes), g)
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=axes), g)
        if x.requires_grad:
            if training:
                gxhat = g * gamma.data[None, :, None, None]
                s1 = gxhat.sum(axis=axes)
                s2 = (gxhat * xhat).sum(axis=axes)
                dx = (
                    gxhat
                    - (s1 / m)[None, :, None, None]
                    - xhat * (s2 / m)[None, :, None, None]
                ) * invstd[None, :, None, None]
            else:
                dx = g * sc[None, :, None, None]
            x._accumulate(dx, g)

    return _make(out, (x, gamma, beta), backward, "batchnorm2d")


# -- verification harness --------------------------------------------------------


def grad_check(f, params, eps=1e-5, max_coords=64):
    """Compare analytic gradients of a scalar function against central differences.

    f takes the parameter list and returns a scalar Tensor; evaluation must be
    deterministic. Returns the max over sampled coordinates of
    |analytic - numeric| / max(1, |analytic|, |numeric|). Run with float64
    parameters for meaningful tolerances.
    """
    if eps <= 0:
        raise ValueError("grad_check: eps must be positive")
    if max_coords < 1:
        raise ValueError("grad_check: max_coords must be positive")
    if not any(p.requires_grad for p in params):
        raise ValueError("grad_check: no parameter requires grad")
    for p in params:
        p.zero_grad()
    out = f(params)
    if not np.isfinite(out.data).all():
        raise NumericalError("grad_check: function value is non-finite")
    out.backward()
    rng = np.random.default_rng(0)
    worst = 0.0
    for pi, p in enumerate(params):
        if not p.requires_grad:
            continue
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(analytic).all():
            raise NumericalError(f"grad_check: non-finite analytic gradient in parameter {pi}")
        # .flat writes through for any memory order; reshape(-1) of a
        # non-C-contiguous array would copy
        flat = p.data.flat
        n = p.data.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        aflat = analytic.reshape(-1)
        for ci in coords:
            orig = flat[ci]
            flat[ci] = orig + eps
            with no_grad():
                hi = float(f(params).data)
            flat[ci] = orig - eps
            with no_grad():
                lo = float(f(params).data)
            flat[ci] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericalError(
                    f"grad_check: non-finite perturbed value in parameter {pi}"
                )
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(aflat[ci] - numeric) / max(1.0, abs(aflat[ci]), abs(numeric))
            worst = max(worst, err)
    return worst
